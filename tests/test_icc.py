import dataclasses

import pytest

from concordia import presets
from concordia.categories import AxiomReport, build_ideal_category, morphism_flags
from concordia.crossconn import build_omega_s, build_s_omega, cc_morphism_from_good_hom
from concordia.icc import (
    InductiveCategory,
    _singular_squares,
    build_icc,
    check_icc_axioms,
    inductive_functor,
)
from concordia.semigroups import LEFT, SemigroupMap, biorder, idempotents, validate_table
from conftest import (
    NONREGULAR_CONCORDANT,
    SMALL_PRESETS,
    concordant_classes,
    omega_bundle,
    semigroup,
)

import functools
from collections import Counter


@functools.cache
def icc_bundle(name):
    s, omega, somega = omega_bundle(name)
    return s, omega, somega, build_icc(omega, somega)


def test_icc_z3():
    s, omega, somega, icc = icc_bundle("cyclic:3")
    assert icc.n_objects == 1 and len(icc.morphisms) == 3
    # <= is discrete off the diagonal: only the reflexive pairs
    assert icc.order == frozenset((m, m) for m in range(3))


def test_icc_sl2():
    s, omega, somega, icc = icc_bundle("semilattice-chain:2")
    assert icc.n_objects == 2
    # identity morphisms only: no bimorphisms between distinct objects
    assert len(icc.morphisms) == 2
    assert len(icc.order) == 3  # reflexive + 1_(S0,0S) <= 1_(S1,1S)


def test_icc_lz2():
    s, omega, somega, icc = icc_bundle("left-zero:2")
    assert icc.n_objects == 2 and len(icc.morphisms) == 4


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_objects_biject_with_idempotents(name):
    s, omega, somega, icc = icc_bundle(name)
    assert icc.n_objects == len(idempotents(s))


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_morphism_census_matches_bimorphism_count(name):
    s, omega, somega, icc = icc_bundle(name)
    c = omega.C
    for i, (c0, d0) in enumerate(icc.objects):
        for j, (c1, d1) in enumerate(icc.objects):
            bims = sum(1 for m in c.hom(c0, c1) if morphism_flags(c, m).bimorphism)
            count = sum(1 for (a, b, u) in icc.morphisms if a == i and b == j)
            assert count == bims


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_distinguished_identity_law(name):
    s, omega, somega, icc = icc_bundle(name)
    for i in range(icc.n_objects):
        assert icc.distinguished[(i, i)] == icc.identity[i]


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_icc_axioms_pass(name):
    s, omega, somega, icc = icc_bundle(name)
    rep = check_icc_axioms(icc)
    assert rep.ok, rep.lines()


def test_icc_axioms_nonregular_witness():
    w = validate_table([list(r) for r in NONREGULAR_CONCORDANT])
    omega = build_omega_s(w)
    somega = build_s_omega(omega)
    icc = build_icc(omega, somega)
    rep = check_icc_axioms(icc)
    assert rep.ok, rep.lines()
    # the non-identity bimorphism of the non-regular element is present
    assert len(icc.morphisms) > icc.n_objects


def test_mutilated_order_fails():
    s, omega, somega, icc = icc_bundle("semilattice-chain:2")
    dropped = next((a, b) for (a, b) in icc.order if a != b)
    bad = dataclasses.replace(icc, order=icc.order - {dropped})
    rep = check_icc_axioms(bad)
    assert not rep.axioms["OCC2"] or not rep.axioms["OCC4"] or \
        not rep.axioms["order_matches_omega"]


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_restriction_uniqueness(name):
    s, omega, somega, icc = icc_bundle(name)
    for m in range(len(icc.morphisms)):
        src = icc.morphisms[m][0]
        for e in range(icc.n_objects):
            if (e, src) in icc.obj_leq:
                below = [m1 for m1 in range(len(icc.morphisms))
                         if (m1, m) in icc.order and icc.morphisms[m1][0] == e]
                assert below == [icc.restriction[(e, m)]]


def test_singular_squares_t2():
    s, omega, somega, icc = icc_bundle("full-transformation:2")
    squares = _singular_squares(icc)
    assert squares  # degenerate squares at least
    # the two constants give a non-degenerate singular square row
    assert any(len({e, f, g, h}) > 1 for (e, f, g, h) in squares)


def test_inductive_functor_identity():
    s, omega, somega, icc = icc_bundle("brandt-b2")
    h = SemigroupMap(s, s, tuple(s.elements))
    ccm = cc_morphism_from_good_hom(h, omega, omega)
    cert = inductive_functor(ccm, icc, icc)
    assert cert.ok and cert.functorial and cert.order_preserved \
        and cert.restrictions_preserved


def test_inductive_functor_collapse():
    z3, omega1, so1, icc1 = icc_bundle("cyclic:3")
    triv = validate_table([[0]])
    omega2 = build_omega_s(triv)
    so2 = build_s_omega(omega2)
    icc2 = build_icc(omega2, so2)
    h = SemigroupMap(z3, triv, (0, 0, 0))
    ccm = cc_morphism_from_good_hom(h, omega1, omega2)
    cert = inductive_functor(ccm, icc1, icc2)
    assert cert.ok


def test_inductive_functor_projection():
    prod = presets.preset("direct-product:semilattice-chain:2*cyclic:3")
    omega1 = build_omega_s(prod)
    so1 = build_s_omega(omega1)
    icc1 = build_icc(omega1, so1)
    sl2, omega2, so2, icc2 = icc_bundle("semilattice-chain:2")
    h = SemigroupMap(prod, sl2, tuple(i // 3 for i in range(6)))
    ccm = cc_morphism_from_good_hom(h, omega1, omega2)
    cert = inductive_functor(ccm, icc1, icc2)
    assert cert.ok


def order_witness_scan(icc):
    """Reference: the order checks over every pair of order pairs."""
    ok = all((m, m) in icc.order for m in range(len(icc.morphisms)))
    witness = None
    for (a, b) in icc.order:
        if (b, a) in icc.order and a != b:
            ok, witness = False, f"antisymmetry fails on {a},{b}"
        for (b2, e) in icc.order:
            if b2 == b and (a, e) not in icc.order:
                ok, witness = False, f"transitivity fails via {a},{b},{e}"
    return ok, witness


@pytest.mark.parametrize("name", ["semilattice-chain:3", "brandt-b2"])
def test_order_checks_match_scan_on_mutations(name):
    _, _, _, icc = icc_bundle(name)
    pairs = sorted(icc.order)
    mutated = [icc.order - {p} for p in pairs if p[0] != p[1]]
    mutated += [icc.order | {(b, a)} for (a, b) in pairs if a != b]
    failed = 0
    for order in [icc.order] + mutated:
        bad = dataclasses.replace(icc, order=order)
        rep = check_icc_axioms(bad)
        ok, witness = order_witness_scan(bad)
        assert rep.axioms["order"] == ok
        assert rep.witnesses.get("order") == witness
        failed += not ok
    assert failed > 0


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_reflexivity_failure_names_its_morphism(name):
    # dropping one (m, m) breaks reflexivity alone: antisymmetry keeps every
    # transitivity check off the missing pair
    _, _, _, icc = icc_bundle(name)
    for m in range(len(icc.morphisms)):
        rep = check_icc_axioms(dataclasses.replace(icc, order=icc.order - {(m, m)}))
        assert not rep.axioms["order"]
        assert rep.witnesses["order"] == f"reflexivity fails at {m}"


def occ_scan(icc):
    """Reference: OCC2 over every pair of order pairs, and OCC4/OCC5
    scanning every morphism for each (m, e); name -> (ok, witness)."""
    out = {}
    ok, witness = True, None
    for (u, x) in icc.order:
        for (v, y) in icc.order:
            if icc.morphisms[u][1] == icc.morphisms[v][0] and \
                    icc.morphisms[x][1] == icc.morphisms[y][0]:
                if (icc.compose[(u, v)], icc.compose[(x, y)]) not in icc.order:
                    ok, witness = False, f"{icc.label(u)},{icc.label(v)}"
                    break
        if not ok:
            break
    out["OCC2"] = (ok, witness)
    for name, end, table, what in (("OCC4", 0, icc.restriction, "restriction"),
                                   ("OCC5", 1, icc.corestriction, "corestriction")):
        ok, witness = True, None
        for m in range(len(icc.morphisms)):
            for e in range(icc.n_objects):
                if (e, icc.morphisms[m][end]) not in icc.obj_leq:
                    continue
                cands = [m1 for m1 in range(len(icc.morphisms))
                         if (m1, m) in icc.order and icc.morphisms[m1][end] == e]
                key = (e, m) if end == 0 else (m, e)
                if len(cands) != 1 or cands[0] != table[key]:
                    ok, witness = False, f"{what} of {icc.label(m)} to object {e}"
                    break
            if not ok:
                break
        out[name] = (ok, witness)
    return out


def test_occ_checks_match_scan_on_mutations():
    # one order pair dropped or reversed: the grouped loops of
    # check_icc_axioms report what the scans report
    failed = set()
    for name in ("semilattice-chain:3", "brandt-b2", "full-transformation:2"):
        _, _, _, icc = icc_bundle(name)
        pairs = sorted(icc.order)
        orders = [icc.order - {p} for p in pairs if p[0] != p[1]]
        orders += [icc.order | {(b, a)} for (a, b) in pairs if a != b]
        for order in [icc.order] + orders:
            bad = dataclasses.replace(icc, order=order)
            rep = check_icc_axioms(bad)
            for axiom, (ok, witness) in occ_scan(bad).items():
                assert rep.axioms[axiom] == ok
                assert rep.witnesses.get(axiom) == witness
                if not ok:
                    failed.add(axiom)
    assert failed == {"OCC2", "OCC4", "OCC5"}


# --- the ICC battery against the loops it replaced -------------------------

def _omega_r_reference(icc: InductiveCategory, i: int, j: int) -> bool:
    return (icc.objects[i][1], icc.objects[j][1]) in icc.omega.D.leq


def _omega_l_reference(icc: InductiveCategory, i: int, j: int) -> bool:
    return (icc.objects[i][0], icc.objects[j][0]) in icc.omega.C.leq


def check_icc_axioms_reference(icc: InductiveCategory) -> AxiomReport:
    """Reference: the ICC battery as written before each axiom became one
    check recorded by AxiomReport.record, kept verbatim."""
    axioms = {}
    witnesses = {}
    c = icc.omega.C

    axioms["OCC1"] = True
    for m, (i, j, u) in enumerate(icc.morphisms):
        if not morphism_flags(c, u).bimorphism:
            axioms["OCC1"] = False
            witnesses["OCC1"] = icc.label(m)
            break

    # partial order sanity: reflexive, antisymmetric, transitive
    ok = all((m, m) in icc.order for m in range(len(icc.morphisms)))
    # above[b] lists the e with b <= e in the iteration order of the order,
    # so the witnesses come out as a scan of all pairs (b2, e) gives them
    above: dict = {}
    for (b, e) in icc.order:
        above.setdefault(b, []).append(e)
    for (a, b) in icc.order:
        if (b, a) in icc.order and a != b:
            ok = False
            witnesses["order"] = f"antisymmetry fails on {a},{b}"
        for e in above.get(b, ()):
            if (a, e) not in icc.order:
                ok = False
                witnesses["order"] = f"transitivity fails via {a},{b},{e}"
    axioms["order"] = ok

    # omega coincides with <= on objects, and E_Omega is a regular biordered set
    fs = icc.somega.semigroup
    bo = biorder(fs)
    omega_pairs = bo.omega_pairs()
    ok = True
    for i in range(icc.n_objects):
        for j in range(icc.n_objects):
            le = (icc.identity[i], icc.identity[j]) in icc.order
            om = (icc.element[i], icc.element[j]) in omega_pairs
            if le != om or le != ((i, j) in icc.obj_leq):
                ok = False
                witnesses["order_matches_omega"] = f"objects {i},{j}"
    axioms["order_matches_omega"] = ok
    axioms["E_regular_biordered"] = bo.regular
    if not bo.regular:
        witnesses["E_regular_biordered"] = "some sandwich set is empty"

    # the order pairs (v, y) by the domains of v and y, in the iteration
    # order of the order, so the witness is the one a scan of all pairs of
    # pairs gives
    by_domains: dict = {}
    for (v, y) in icc.order:
        key = (icc.morphisms[v][0], icc.morphisms[y][0])
        by_domains.setdefault(key, []).append((v, y))
    ok = True
    for (u, x) in icc.order:
        for (v, y) in by_domains.get((icc.morphisms[u][1], icc.morphisms[x][1]), ()):
            if (icc.compose[(u, v)], icc.compose[(x, y)]) not in icc.order:
                ok = False
                witnesses["OCC2"] = f"{icc.label(u)},{icc.label(v)}"
                break
        if not ok:
            break
    axioms["OCC2"] = ok

    ok = True
    for (x, y) in icc.order:
        ix, jx = icc.morphisms[x][:2]
        iy, jy = icc.morphisms[y][:2]
        if (icc.identity[ix], icc.identity[iy]) not in icc.order or \
                (icc.identity[jx], icc.identity[jy]) not in icc.order:
            ok = False
            witnesses["OCC3"] = f"{icc.label(x)} <= {icc.label(y)}"
            break
    axioms["OCC3"] = ok

    # below[m]: the m1 <= m, ascending
    below: dict = {}
    for (m1, m) in sorted(icc.order):
        below.setdefault(m, []).append(m1)
    ok = True
    for m in range(len(icc.morphisms)):
        src = icc.morphisms[m][0]
        for e in range(icc.n_objects):
            if (e, src) not in icc.obj_leq:
                continue
            cands = [m1 for m1 in below.get(m, ())
                     if icc.morphisms[m1][0] == e]
            if len(cands) != 1 or cands[0] != icc.restriction[(e, m)]:
                ok = False
                witnesses["OCC4"] = f"restriction of {icc.label(m)} to object {e}"
                break
        if not ok:
            break
    axioms["OCC4"] = ok

    ok = True
    for m in range(len(icc.morphisms)):
        dst = icc.morphisms[m][1]
        for f in range(icc.n_objects):
            if (f, dst) not in icc.obj_leq:
                continue
            cands = [m1 for m1 in below.get(m, ())
                     if icc.morphisms[m1][1] == f]
            if len(cands) != 1 or cands[0] != icc.corestriction[(m, f)]:
                ok = False
                witnesses["OCC5"] = f"corestriction of {icc.label(m)} to object {f}"
                break
        if not ok:
            break
    axioms["OCC5"] = ok

    # distinguished morphism laws
    ok = all(icc.distinguished[(i, i)] == icc.identity[i]
             for i in range(icc.n_objects))
    if not ok:
        witnesses["DIST_i"] = "[e,e] != 1_e"
    axioms["DIST_i"] = ok

    ok = True
    for (i, j) in icc.distinguished:
        for (j2, k) in icc.distinguished:
            if j2 != j or (i, k) not in icc.distinguished:
                continue
            same_r = (icc.objects[i][1] == icc.objects[j][1] == icc.objects[k][1])
            same_l = (icc.objects[i][0] == icc.objects[j][0] == icc.objects[k][0])
            if not (same_r or same_l):
                continue
            lhs = icc.compose[(icc.distinguished[(i, j)], icc.distinguished[(j, k)])]
            if lhs != icc.distinguished[(i, k)]:
                ok = False
                witnesses["DIST_ii"] = f"[{i},{j}][{j},{k}] != [{i},{k}]"
    axioms["DIST_ii"] = ok

    ok = True
    fs = icc.somega.semigroup
    for (g, h) in icc.distinguished:
        for e in range(icc.n_objects):
            if (icc.element[e], icc.element[g]) not in omega_pairs:
                continue
            heh = fs.mul(fs.mul(icc.element[h], icc.element[e]), icc.element[h])
            fobj = [k for k, x in enumerate(icc.element) if x == heh]
            if len(fobj) != 1 or (e, fobj[0]) not in icc.distinguished:
                ok = False
                witnesses["DIST_iii"] = f"[e,heh] missing for e={e}, [g,h]=({g},{h})"
                break
            if (icc.distinguished[(e, fobj[0])], icc.distinguished[(g, h)]) \
                    not in icc.order:
                ok = False
                witnesses["DIST_iii"] = f"[e,f] !<= [g,h] for e={e}, ({g},{h})"
                break
        if not ok:
            break
    axioms["DIST_iii"] = ok

    def obj_of_elt(x):
        for k, e in enumerate(icc.element):
            if e == x:
                return k
        return None

    ok = True
    for m in range(len(icc.morphisms)):
        src, dst = icc.morphisms[m][:2]
        subs = [e for e in range(icc.n_objects) if (e, src) in icc.obj_leq]
        for e1 in subs:
            for e2 in subs:
                if not _omega_r_reference(icc, e1, e2):
                    continue
                f1 = icc.morphisms[icc.restriction[(e1, m)]][1]
                f2 = icc.morphisms[icc.restriction[(e2, m)]][1]
                if not _omega_r_reference(icc, f1, f2):
                    ok = False
                    witnesses["ICC1"] = f"f1 not omega-r f2 at {icc.label(m)}"
                    break
                e12 = obj_of_elt(fs.mul(icc.element[e1], icc.element[e2]))
                f12 = obj_of_elt(fs.mul(icc.element[f1], icc.element[f2]))
                if e12 is None or f12 is None:
                    ok = False
                    witnesses["ICC1"] = "basic product left E_Omega"
                    break
                lhs = icc.compose[(icc.distinguished[(e1, e12)],
                                   icc.restriction[(e12, m)])]
                rhs = icc.compose[(icc.restriction[(e1, m)],
                                   icc.distinguished[(f1, f12)])]
                if lhs != rhs:
                    ok = False
                    witnesses["ICC1"] = f"{icc.label(m)} at e1={e1}, e2={e2}"
                    break
            if not ok:
                break
        if not ok:
            break
    axioms["ICC1"] = ok

    ok = True
    for m in range(len(icc.morphisms)):
        src, dst = icc.morphisms[m][:2]
        subs = [f for f in range(icc.n_objects) if (f, dst) in icc.obj_leq]
        for e1 in subs:
            for e2 in subs:
                if not _omega_l_reference(icc, e1, e2):
                    continue
                f1 = icc.morphisms[icc.corestriction[(m, e1)]][0]
                f2 = icc.morphisms[icc.corestriction[(m, e2)]][0]
                if not _omega_l_reference(icc, f1, f2):
                    ok = False
                    witnesses["ICC1_dual"] = f"f1 not omega-l f2 at {icc.label(m)}"
                    break
                e21 = obj_of_elt(fs.mul(icc.element[e2], icc.element[e1]))
                f21 = obj_of_elt(fs.mul(icc.element[f2], icc.element[f1]))
                if e21 is None or f21 is None:
                    ok = False
                    witnesses["ICC1_dual"] = "basic product left E_Omega"
                    break
                lhs = icc.compose[(icc.corestriction[(m, e21)],
                                   icc.distinguished[(e21, e1)])]
                rhs = icc.compose[(icc.distinguished[(f21, f1)],
                                   icc.corestriction[(m, e1)])]
                if lhs != rhs:
                    ok = False
                    witnesses["ICC1_dual"] = f"{icc.label(m)} at e1={e1}, e2={e2}"
                    break
            if not ok:
                break
        if not ok:
            break
    axioms["ICC1_dual"] = ok

    ok = True
    for (e, f, g, h) in _singular_squares(icc):
        lhs = icc.compose[(icc.distinguished[(e, f)], icc.distinguished[(f, h)])]
        rhs = icc.compose[(icc.distinguished[(e, g)], icc.distinguished[(g, h)])]
        if lhs != rhs:
            ok = False
            witnesses["ICC2"] = f"square ({e},{f};{g},{h})"
            break
    axioms["ICC2"] = ok

    return AxiomReport(axioms, witnesses)


def icc_of_table(table):
    omega = build_omega_s(validate_table([list(r) for r in table]))
    return build_icc(omega, build_s_omega(omega))


def icc_mutations(icc):
    """icc, and icc with one entry changed: an order pair dropped (reflexive
    ones included) or reversed, or a restriction, corestriction,
    distinguished or compose entry moved to another morphism."""
    n_mor = len(icc.morphisms)

    def other(m):
        # the next morphism id with the same ends, else the next id
        same = [x for x in range(m + 1, m + n_mor)
                if icc.morphisms[x % n_mor][:2] == icc.morphisms[m][:2]]
        return (same[0] if same else m + 1) % n_mor

    yield icc
    pairs = sorted(icc.order)
    for p in pairs:
        yield dataclasses.replace(icc, order=icc.order - {p})
    for (a, b) in pairs:
        if a != b:
            yield dataclasses.replace(icc, order=icc.order | {(b, a)})
    for field in ("restriction", "corestriction", "distinguished", "compose"):
        table = getattr(icc, field)
        for key in sorted(table):
            yield dataclasses.replace(
                icc, **{field: {**table, key: other(table[key])}})


def icc_outcome(check, icc):
    """A report as (axioms, witnesses), or the escaping exception's type and
    message."""
    try:
        rep = check(icc)
    except Exception as exc:  # a KeyError from a corrupted table must match too
        return type(exc), str(exc)
    return rep.axioms, rep.witnesses


def assert_icc_matches_reference(tables):
    """Every report line and witness of the replaced loops on the mutations
    of each table's ICC, except that a failure of reflexivity alone now
    names its first morphism; a raise must be the same raise."""
    counts = Counter()
    for table in tables:
        for bad in icc_mutations(icc_of_table(table)):
            want = icc_outcome(check_icc_axioms_reference, bad)
            got = icc_outcome(check_icc_axioms, bad)
            counts["variants"] += 1
            if not isinstance(want[0], dict):
                counts["raised"] += 1
                assert got == want
                continue
            axioms, witnesses = want
            if not axioms["order"] and "order" not in witnesses:
                m = min(m for m in range(len(bad.morphisms)) if (m, m) not in bad.order)
                witnesses["order"] = f"reflexivity fails at {m}"
                counts["reflexive"] += 1
            assert got == want and list(got[0]) == list(axioms)
            counts["failing"] += not all(axioms.values())
    return counts


def test_icc_axioms_match_reference_on_mutations():
    n = assert_icc_matches_reference(concordant_classes(4))
    assert n["variants"] >= 2000 and n["failing"] >= 1500
    assert n["raised"] > 0 and n["reflexive"] > 0


@pytest.mark.slow
def test_icc_axioms_match_reference_on_mutations_order_5():
    n = assert_icc_matches_reference([t for t in concordant_classes(5) if len(t) == 5])
    assert n["failing"] > 0 and n["reflexive"] > 0
