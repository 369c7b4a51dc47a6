"""The inductive cancellative category of a cross-connection.

Objects are the E_Omega pairs, morphisms are bimorphisms of the left
category tagged with source/target pairs, ordered by the restriction order
<=_Omega.  Connecting isomorphisms come from the IC certificate of S-Omega.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .categories import AxiomFailure, AxiomReport, epi_component, morphism_flags
from .cones import cone_star
from .crossconn import CrossConnection, SOmega, transpose
from .semigroups import biorder, connecting_bijection


@dataclass
class InductiveCategory:
    omega: CrossConnection
    somega: SOmega
    objects: tuple  # E_Omega pairs, sorted
    obj_index: dict  # pair -> object index
    element: tuple  # per object: the idempotent's element id in S-Omega
    morphisms: tuple  # (src obj, dst obj, underlying C-bimorphism)
    mor_index: dict
    identity: tuple  # per object
    compose: dict
    obj_leq: frozenset  # (i, j): pair i is below pair j in both coordinates
    connecting: tuple  # per morphism: {obj below src -> obj below dst}
    element_of: tuple  # per morphism: the S-Omega element it represents
    order: frozenset  # <=_Omega on morphism ids
    restriction: dict  # (obj, m) -> m'
    corestriction: dict  # (m, obj) -> m'
    distinguished: dict  # (i, j) -> m, for R- or L-related object pairs

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def label(self, m: int) -> str:
        i, j, u = self.morphisms[m]
        return (f"{self.omega.pair_label(self.objects[i])}->"
                f"{self.omega.pair_label(self.objects[j])}:{self.omega.C.label(u)}")


def build_icc(omega: CrossConnection, somega: Optional[SOmega] = None) -> InductiveCategory:
    """I(Omega): morphisms (c,d) -> (c',d') are the bimorphisms c -> c'; the
    order u1 <= u2 holds when (c1,d1) is below (c2,d2), u1 = (j(c1,c2)u2)°
    and the target pair is the image of (c1,d1) under u2's connecting
    isomorphism."""
    if somega is None:
        from .crossconn import build_s_omega
        somega = build_s_omega(omega)
    c = omega.C
    fs = somega.semigroup
    objects = tuple(omega.e_omega)
    obj_index = {cd: i for i, cd in enumerate(objects)}
    element = tuple(somega.idempotent_pairs[cd] for cd in objects)
    elt_to_obj = {e: i for i, e in enumerate(element)}

    bims = {}
    for m in c.morphisms:
        if morphism_flags(c, m).bimorphism:
            bims.setdefault((c.dom[m], c.cod[m]), []).append(m)

    morphisms = []
    mor_index = {}
    for i, (c0, d0) in enumerate(objects):
        for j, (c1, d1) in enumerate(objects):
            for u in bims.get((c0, c1), ()):
                mor_index[(i, j, u)] = len(morphisms)
                morphisms.append((i, j, u))
    morphisms = tuple(morphisms)

    identity = tuple(mor_index[(i, i, c.identities[cd[0]])]
                     for i, cd in enumerate(objects))
    compose = {}
    for m1, (i1, j1, u1) in enumerate(morphisms):
        for m2, (i2, j2, u2) in enumerate(morphisms):
            if j1 == i2:
                compose[(m1, m2)] = mor_index[(i1, j2, c.compose(u1, u2))]

    obj_leq = frozenset(
        (i, j) for i in range(len(objects)) for j in range(len(objects))
        if (objects[i][0], objects[j][0]) in omega.C.leq
        and (objects[i][1], objects[j][1]) in omega.D.leq)

    element_of = []
    connecting = []
    for (i, j, u) in morphisms:
        (c0, d0), (c1, d1) = objects[i], objects[j]
        g_side = cone_star(c, omega.cs_c.cones[omega.gamma_of[(c0, d0)]], u)
        u_t = transpose(omega, u, d1, d0)
        d_side = cone_star(omega.D, omega.cs_d.cones[omega.delta_of[(c1, d1)]],
                           epi_component(omega.D, u_t))
        key = (omega.cs_c.index[g_side], omega.cs_d.index[d_side])
        if key not in somega.index:
            raise AxiomFailure("ICC morphism does not represent a linked pair")
        s = somega.index[key]
        element_of.append(s)
        alpha, _forced = connecting_bijection(fs, s, element[i], element[j])
        if alpha is None:
            raise AxiomFailure(
                "no connecting isomorphism for an ICC morphism (IC failure)")
        conn = {}
        for x, y in alpha.items():
            if x in elt_to_obj:
                if y not in elt_to_obj:
                    raise AxiomFailure("connecting bijection leaves E_Omega")
                conn[elt_to_obj[x]] = elt_to_obj[y]
        connecting.append(conn)
    element_of = tuple(element_of)
    connecting = tuple(connecting)

    below = {i: tuple(k for k in range(len(objects)) if (k, i) in obj_leq)
             for i in range(len(objects))}
    order = set()
    restriction = {}
    for m2, (i2, j2, u2) in enumerate(morphisms):
        (c2, d2) = objects[i2]
        for e in below[i2]:
            (ce, de) = objects[e]
            u1 = epi_component(c, c.compose(c.inclusions[(ce, c2)], u2))
            target = connecting[m2][e]
            m1 = mor_index.get((e, target, u1))
            if m1 is None:
                raise AxiomFailure("restriction fell outside the morphism set")
            order.add((m1, m2))
            restriction[(e, m2)] = m1
    corestriction = {}
    for m2, (i2, j2, u2) in enumerate(morphisms):
        inv = {v: k for k, v in connecting[m2].items()}
        for f in below[j2]:
            if f not in inv:
                raise AxiomFailure("corestriction target not reached by connecting iso")
            corestriction[(m2, f)] = restriction[(inv[f], m2)]
    order = frozenset(order)

    distinguished = {}
    for i, (c0, d0) in enumerate(objects):
        for j, (c1, d1) in enumerate(objects):
            if d0 == d1 or c0 == c1:
                u = omega.cs_c.cones[omega.gamma_of[(c1, d1)]].components[c0]
                if not morphism_flags(c, u).bimorphism:
                    raise AxiomFailure("distinguished morphism is not a bimorphism")
                distinguished[(i, j)] = mor_index[(i, j, u)]

    return InductiveCategory(
        omega, somega, objects, obj_index, element, morphisms, mor_index,
        identity, compose, obj_leq, connecting, element_of, order,
        restriction, corestriction, distinguished)


def _singular_squares(icc: InductiveCategory):
    """E-squares (e f; g h) with rows R-related and columns L-related,
    singularised by an idempotent in one of the four orientations."""
    fs = icc.somega.semigroup
    elts = icc.element
    n = len(elts)

    def mul(a, b):
        return fs.mul(elts[a], elts[b])

    squares = []
    for e in range(n):
        for f in range(n):
            if icc.objects[e][1] != icc.objects[f][1]:
                continue  # need e R f
            for g in range(n):
                if icc.objects[e][0] != icc.objects[g][0]:
                    continue  # need e L g
                for h in range(n):
                    if icc.objects[g][1] != icc.objects[h][1]:
                        continue
                    if icc.objects[f][0] != icc.objects[h][0]:
                        continue
                    for k in range(n):
                        kk = elts[k]
                        if ((mul(e, k) == elts[e] and mul(f, k) == elts[f]
                             and fs.mul(kk, elts[e]) == elts[g]
                             and fs.mul(kk, elts[f]) == elts[h])
                            or (mul(g, k) == elts[g] and mul(h, k) == elts[h]
                                and fs.mul(kk, elts[g]) == elts[e]
                                and fs.mul(kk, elts[h]) == elts[f])
                            or (fs.mul(kk, elts[e]) == elts[e]
                                and fs.mul(kk, elts[g]) == elts[g]
                                and mul(e, k) == elts[f] and mul(g, k) == elts[h])
                            or (fs.mul(kk, elts[f]) == elts[f]
                                and fs.mul(kk, elts[h]) == elts[h]
                                and mul(f, k) == elts[e] and mul(h, k) == elts[g])):
                            squares.append((e, f, g, h))
                            break
    return squares


def check_icc_axioms(icc: InductiveCategory) -> AxiomReport:
    """OCC1-OCC5, the distinguished-morphism laws, ICC1 (and its dual) and
    ICC2, checked exhaustively over the finite data, each recorded by
    `AxiomReport.record`.

    Each check names its first failure, except `order`,
    `order_matches_omega` and `DIST_ii`, which scan on and name their last;
    an `order` failure of reflexivity alone names its first morphism."""
    report = AxiomReport({}, {})
    c, n = icc.omega.C, icc.n_objects
    objects, element, morphisms = icc.objects, icc.element, icc.morphisms
    fs = icc.somega.semigroup
    bo = biorder(fs)
    omega_pairs = bo.omega_pairs()
    dist = icc.distinguished
    obj_of: dict = {}  # element -> the first object whose idempotent it is
    for k, x in enumerate(element):
        obj_of.setdefault(x, k)

    def occ1():
        for m, (i, j, u) in enumerate(morphisms):
            if not morphism_flags(c, u).bimorphism:
                return icc.label(m)

    def order():
        # partial order sanity: reflexive, antisymmetric, transitive
        witness = next((f"reflexivity fails at {m}" for m in range(len(morphisms))
                        if (m, m) not in icc.order), None)
        # above[b] lists the e with b <= e in the iteration order of the order,
        # so the witnesses come out as a scan of all pairs (b2, e) gives them
        above: dict = {}
        for (b, e) in icc.order:
            above.setdefault(b, []).append(e)
        for (a, b) in icc.order:
            if (b, a) in icc.order and a != b:
                witness = f"antisymmetry fails on {a},{b}"
            for e in above.get(b, ()):
                if (a, e) not in icc.order:
                    witness = f"transitivity fails via {a},{b},{e}"
        return witness

    def order_matches_omega():
        # omega coincides with <= on objects
        witness = None
        for i in range(n):
            for j in range(n):
                le = (icc.identity[i], icc.identity[j]) in icc.order
                om = (element[i], element[j]) in omega_pairs
                if le != om or le != ((i, j) in icc.obj_leq):
                    witness = f"objects {i},{j}"
        return witness

    def occ2():
        # the order pairs (v, y) by the domains of v and y, in its iteration
        # order, so the witness is the one a scan of all pairs of pairs gives
        by_domains: dict = {}
        for (v, y) in icc.order:
            by_domains.setdefault((morphisms[v][0], morphisms[y][0]), []).append((v, y))
        for (u, x) in icc.order:
            for (v, y) in by_domains.get((morphisms[u][1], morphisms[x][1]), ()):
                if (icc.compose[(u, v)], icc.compose[(x, y)]) not in icc.order:
                    return f"{icc.label(u)},{icc.label(v)}"

    def occ3():
        for (x, y) in icc.order:
            ix, jx = morphisms[x][:2]
            iy, jy = morphisms[y][:2]
            if (icc.identity[ix], icc.identity[iy]) not in icc.order or \
                    (icc.identity[jx], icc.identity[jy]) not in icc.order:
                return f"{icc.label(x)} <= {icc.label(y)}"

    # below[m]: the m1 <= m, ascending
    below: dict = {}
    for (m1, m) in sorted(icc.order):
        below.setdefault(m, []).append(m1)

    def occ45(end):
        # OCC4 (end 0): m has one restriction to each object below its domain;
        # OCC5 (end 1): one corestriction to each object below its codomain
        table, what = ((icc.restriction, "restriction") if end == 0
                       else (icc.corestriction, "corestriction"))
        for m, ends in enumerate(morphisms):
            for e in range(n):
                if (e, ends[end]) not in icc.obj_leq:
                    continue
                cands = [m1 for m1 in below.get(m, ()) if morphisms[m1][end] == e]
                if len(cands) != 1 or cands[0] != table[(e, m) if end == 0 else (m, e)]:
                    return f"{what} of {icc.label(m)} to object {e}"

    def dist_i():
        if not all(dist[(i, i)] == icc.identity[i] for i in range(n)):
            return "[e,e] != 1_e"

    def dist_ii():
        witness = None
        for (i, j) in dist:
            for (j2, k) in dist:
                if j2 != j or (i, k) not in dist:
                    continue
                same_r = objects[i][1] == objects[j][1] == objects[k][1]
                same_l = objects[i][0] == objects[j][0] == objects[k][0]
                if not (same_r or same_l):
                    continue
                if icc.compose[(dist[(i, j)], dist[(j, k)])] != dist[(i, k)]:
                    witness = f"[{i},{j}][{j},{k}] != [{i},{k}]"
        return witness

    def dist_iii():
        for (g, h) in dist:
            for e in range(n):
                if (element[e], element[g]) not in omega_pairs:
                    continue
                heh = fs.mul(fs.mul(element[h], element[e]), element[h])
                fobj = [k for k, x in enumerate(element) if x == heh]
                if len(fobj) != 1 or (e, fobj[0]) not in dist:
                    return f"[e,heh] missing for e={e}, [g,h]=({g},{h})"
                if (dist[(e, fobj[0])], dist[(g, h)]) not in icc.order:
                    return f"[e,f] !<= [g,h] for e={e}, ({g},{h})"

    def icc1():
        for m, (src, dst, _) in enumerate(morphisms):
            subs = [e for e in range(n) if (e, src) in icc.obj_leq]
            for e1 in subs:
                for e2 in subs:
                    if (objects[e1][1], objects[e2][1]) not in icc.omega.D.leq:
                        continue
                    f1 = morphisms[icc.restriction[(e1, m)]][1]
                    f2 = morphisms[icc.restriction[(e2, m)]][1]
                    if (objects[f1][1], objects[f2][1]) not in icc.omega.D.leq:
                        return f"f1 not omega-r f2 at {icc.label(m)}"
                    e12 = obj_of.get(fs.mul(element[e1], element[e2]))
                    f12 = obj_of.get(fs.mul(element[f1], element[f2]))
                    if e12 is None or f12 is None:
                        return "basic product left E_Omega"
                    lhs = icc.compose[(dist[(e1, e12)], icc.restriction[(e12, m)])]
                    rhs = icc.compose[(icc.restriction[(e1, m)], dist[(f1, f12)])]
                    if lhs != rhs:
                        return f"{icc.label(m)} at e1={e1}, e2={e2}"

    def icc1_dual():
        for m, (src, dst, _) in enumerate(morphisms):
            subs = [f for f in range(n) if (f, dst) in icc.obj_leq]
            for e1 in subs:
                for e2 in subs:
                    if (objects[e1][0], objects[e2][0]) not in icc.omega.C.leq:
                        continue
                    f1 = morphisms[icc.corestriction[(m, e1)]][0]
                    f2 = morphisms[icc.corestriction[(m, e2)]][0]
                    if (objects[f1][0], objects[f2][0]) not in icc.omega.C.leq:
                        return f"f1 not omega-l f2 at {icc.label(m)}"
                    e21 = obj_of.get(fs.mul(element[e2], element[e1]))
                    f21 = obj_of.get(fs.mul(element[f2], element[f1]))
                    if e21 is None or f21 is None:
                        return "basic product left E_Omega"
                    lhs = icc.compose[(icc.corestriction[(m, e21)], dist[(e21, e1)])]
                    rhs = icc.compose[(dist[(f21, f1)], icc.corestriction[(m, e1)])]
                    if lhs != rhs:
                        return f"{icc.label(m)} at e1={e1}, e2={e2}"

    def icc2():
        for (e, f, g, h) in _singular_squares(icc):
            if icc.compose[(dist[(e, f)], dist[(f, h)])] != \
                    icc.compose[(dist[(e, g)], dist[(g, h)])]:
                return f"square ({e},{f};{g},{h})"

    report.record("OCC1", occ1)
    report.record("order", order)
    report.record("order_matches_omega", order_matches_omega)
    # E_Omega is a regular biordered set
    report.record("E_regular_biordered",
                  lambda: None if bo.regular else "some sandwich set is empty")
    report.record("OCC2", occ2)
    report.record("OCC3", occ3)
    report.record("OCC4", lambda: occ45(0))
    report.record("OCC5", lambda: occ45(1))
    report.record("DIST_i", dist_i)
    report.record("DIST_ii", dist_ii)
    report.record("DIST_iii", dist_iii)
    report.record("ICC1", icc1)
    report.record("ICC1_dual", icc1_dual)
    report.record("ICC2", icc2)
    return report


@dataclass
class InductiveFunctorCertificate:
    ok: bool
    object_map: dict
    morphism_map: dict
    functorial: bool
    order_preserved: bool
    restrictions_preserved: bool
    detail: str = ""


def inductive_functor(ccm, icc1: InductiveCategory,
                      icc2: InductiveCategory) -> InductiveFunctorCertificate:
    """Restriction of a CC-morphism to the inductive categories, with
    functoriality, order- and restriction-preservation certified."""
    obj_map = {}
    for i, (c0, d0) in enumerate(icc1.objects):
        image = (ccm.f.objects[c0], ccm.g.objects[d0])
        if image not in icc2.obj_index:
            return InductiveFunctorCertificate(
                False, {}, {}, False, False, False,
                f"image of object {i} is not in E_Omega'")
        obj_map[i] = icc2.obj_index[image]
    mor_map = {}
    for m, (i, j, u) in enumerate(icc1.morphisms):
        key = (obj_map[i], obj_map[j], ccm.f.morphisms[u])
        if key not in icc2.mor_index:
            return InductiveFunctorCertificate(
                False, obj_map, {}, False, False, False,
                f"image of {icc1.label(m)} is not an ICC morphism")
        mor_map[m] = icc2.mor_index[key]
    functorial = all(
        mor_map[icc1.compose[(m1, m2)]] == icc2.compose[(mor_map[m1], mor_map[m2])]
        for (m1, m2) in icc1.compose)
    functorial = functorial and all(
        mor_map[icc1.identity[i]] == icc2.identity[obj_map[i]]
        for i in range(icc1.n_objects))
    order_preserved = all((mor_map[a], mor_map[b]) in icc2.order
                          for (a, b) in icc1.order)
    restrictions_preserved = all(
        mor_map[m1] == icc2.restriction[(obj_map[e], mor_map[m])]
        for (e, m), m1 in icc1.restriction.items())
    ok = functorial and order_preserved and restrictions_preserved
    return InductiveFunctorCertificate(
        ok, obj_map, mor_map, functorial, order_preserved, restrictions_preserved)
