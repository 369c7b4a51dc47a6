import dataclasses

import pytest

from concordia import presets
from concordia.categories import build_ideal_category, morphism_flags
from concordia.cones import EPSILON_STAR_U, PRINCIPAL_ONLY, build_cone_semigroup, h_functor
from concordia.crossconn import (
    CCMorphism,
    CertificateFailure,
    FunctorData,
    MAxiomViolation,
    NotConcordant,
    PairNotInEOmega,
    apply_cc_morphism,
    build_dual,
    build_omega_s,
    build_s_omega,
    cc_morphism_from_good_hom,
    chi,
    delta_cd,
    delta_values,
    gamma_cd,
    gamma_values,
    is_local_isomorphism,
    phi_roundtrip,
    psi_roundtrip,
    restrict_to_normal,
    transpose,
    validate_cc_morphism,
    _gamma_functor,
)
from concordia.semigroups import (
    LEFT,
    RIGHT,
    SemigroupMap,
    idempotents,
    is_concordant,
    validate_table,
)
from conftest import (
    SMALL_PRESETS,
    NONREGULAR_CONCORDANT,
    concordant_classes,
    omega_bundle,
    semigroup,
)


def test_build_dual_sl2():
    s = semigroup("semilattice-chain:2")
    c = build_ideal_category(s, LEFT)
    cs = build_cone_semigroup(c)
    dual = build_dual(cs)
    assert dual.base.n_objects == 2
    # anti-isomorphic hom counts: |dual(eps C, eps' C)| = |C(c_eps', c_eps)|
    for o1 in dual.base.objects:
        for o2 in dual.base.objects:
            v1 = cs.cones[dual.base.object_idem[o1]].vertex
            v2 = cs.cones[dual.base.object_idem[o2]].vertex
            assert len(dual.base.hom(o1, o2)) == len(c.hom(v2, v1))


def test_build_dual_z3():
    s = semigroup("cyclic:3")
    c = build_ideal_category(s, LEFT)
    dual = build_dual(build_cone_semigroup(c))
    assert dual.base.n_objects == 1 and dual.base.n_morphisms == 3


def test_dual_gamma_tilde_identity():
    s = semigroup("semilattice-chain:2")
    c = build_ideal_category(s, LEFT)
    cs = build_cone_semigroup(c)
    dual = build_dual(cs)
    for o in dual.base.objects:
        assert dual.gamma_tilde[dual.base.identities[o]] == \
            c.identities[cs.cones[dual.base.object_idem[o]].vertex]


@pytest.mark.parametrize("name", ["full-transformation:2", "brandt-b2"])
@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_gamma_refuses_a_changed_nat(name, side):
    # Gamma_S (side LEFT) and Delta_S (side RIGHT) take the FS image of each
    # morphism and compare its nat with the conjugated action; one changed
    # value in the nat of any image they hit must be refused
    s = presets.preset(name)
    c = build_ideal_category(s, side)
    d = build_ideal_category(s, RIGHT if side == LEFT else LEFT)
    dual_c = build_dual(build_cone_semigroup(c, PRINCIPAL_ONLY))
    args = (d, dual_c, "Gamma_S", "FS_rho . G->")
    images = _gamma_functor(*args).morphisms
    n_cones = dual_c.cone_semigroup.order
    assert n_cones > 1
    for image in sorted(set(images.values())):
        kept = dual_c.nat[image]
        obj = next(o for o, step in enumerate(kept) if step)
        changed = dict(kept[obj])
        gid = min(changed)
        changed[gid] = (changed[gid] + 1) % n_cones
        dual_c.nat[image] = kept[:obj] + (changed,) + kept[obj + 1:]
        with pytest.raises(CertificateFailure, match="Gamma_S does not factor as FS_rho"):
            _gamma_functor(*args)
        dual_c.nat[image] = kept
    assert _gamma_functor(*args).morphisms == images


def test_omega_z3():
    s, omega, somega = omega_bundle("cyclic:3")
    assert omega.e_omega == ((0, 0),)
    assert somega.order == 3


def test_omega_sl2():
    s, omega, somega = omega_bundle("semilattice-chain:2")
    assert omega.e_omega == ((0, 0), (1, 1))
    assert somega.semigroup.table == ((0, 0), (0, 1))  # the 2-chain


def test_omega_t2():
    s, omega, somega = omega_bundle("full-transformation:2")
    assert len(omega.e_omega) == len(idempotents(s)) == 3


def test_not_concordant_raises():
    with pytest.raises(NotConcordant) as exc:
        build_omega_s(presets.monogenic(2, 2))
    assert "not abundant" in str(exc.value)


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_e_omega_matches_semigroup_idempotents(name):
    s, omega, somega = omega_bundle(name)
    assert len(omega.e_omega) == len(idempotents(s))


def test_local_isomorphism_identity_true_constant_false():
    s = semigroup("semilattice-chain:2")
    c = build_ideal_category(s, LEFT)
    ident = FunctorData(c, c, {a: a for a in c.objects},
                        {m: m for m in c.morphisms})
    ok, _ = is_local_isomorphism(ident)
    assert ok
    # collapse everything onto the bottom object S0
    bottom = {m: c.identities[0] for m in c.morphisms}
    const = FunctorData(c, c, {a: 0 for a in c.objects}, bottom)
    ok, why = is_local_isomorphism(const)
    assert not ok


def test_gamma_cd_sl2():
    from concordia.cones import principal_cone
    s, omega, _ = omega_bundle("semilattice-chain:2")
    c = omega.C
    assert omega.cs_c.cones[gamma_cd(omega, (1, 1))] == principal_cone(c, 1)
    assert omega.cs_c.cones[gamma_cd(omega, (0, 0))] == principal_cone(c, 0)
    with pytest.raises(PairNotInEOmega):
        gamma_cd(omega, (0, 1))


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_gamma_of_e_pairs_are_principal(name):
    # gamma(Se, eS) = rho^e; checked at build, re-asserted here
    from concordia.categories import object_of_idempotent
    s, omega, _ = omega_bundle(name)
    for e in idempotents(s):
        cd = (object_of_idempotent(omega.C, e), object_of_idempotent(omega.D, e))
        assert omega.gamma_of[cd] == omega.cs_c.principal_of[e]


def test_transpose_identity():
    s, omega, _ = omega_bundle("semilattice-chain:2")
    for (cobj, dobj) in omega.e_omega:
        f = omega.C.identities[cobj]
        g = transpose(omega, f, dobj, dobj)
        assert g == omega.D.identities[dobj]


def test_transpose_sl2_inclusion():
    s, omega, _ = omega_bundle("semilattice-chain:2")
    j = omega.C.inclusions[(0, 1)]  # rho(0,0,1): S0 -> S1
    # anchors: d' in M-Delta(cod)= {1S}, d in M-Delta(dom) = {0S}
    g = transpose(omega, j, 1, 0)
    assert omega.D.dom[g] == 1 and omega.D.cod[g] == 0
    assert omega.D.label(g) == "lam(1,0,0)"


@pytest.mark.parametrize("name", ["semilattice-chain:2", "left-zero:2", "brandt-b2"])
def test_transpose_involution(name):
    # (g-transpose)-transpose = g wherever the anchors match up
    s, omega, _ = omega_bundle(name)
    for f in omega.C.morphisms:
        c1, c0 = omega.C.dom[f], omega.C.cod[f]
        for d_prime in sorted(omega.m_delta[c0]):
            for d in sorted(omega.m_delta[c1]):
                g = transpose(omega, f, d_prime, d)
                # dual transpose anchored with the M-set duality partners
                f_back = transpose(omega.transposed(), g, c1, c0)
                assert f_back == f


def test_chi_idempotent_case():
    # chi(c,d)(gamma(c,d)) = delta(c,d)
    for name in SMALL_PRESETS:
        s, omega, _ = omega_bundle(name)
        for cd in omega.e_omega:
            table = chi(omega, cd)
            assert table[omega.gamma_of[cd]] == omega.delta_of[cd]


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_chi_cardinalities(name):
    s, omega, _ = omega_bundle(name)
    for cobj in omega.C.objects:
        for dobj in omega.D.objects:
            assert len(gamma_values(omega, cobj, dobj)) == \
                len(delta_values(omega, cobj, dobj))


def test_s_omega_z3_iso_z3():
    s, omega, somega = omega_bundle("cyclic:3")
    _, _, cert = phi_roundtrip(s, omega=omega, somega=somega)
    f = cert.mapping
    for a in s.elements:
        for b in s.elements:
            assert somega.semigroup.mul(f[a], f[b]) == f[s.mul(a, b)]


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_s_omega_concordant(name):
    s, omega, somega = omega_bundle(name)
    assert is_concordant(somega.semigroup).concordant


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_e_s_omega_census(name):
    # Lemma: E(S-Omega) = {(gamma(c,d), delta(c,d)) : (c,d) in E_Omega}
    s, omega, somega = omega_bundle(name)
    assert set(somega.idempotent_pairs.values()) == \
        set(idempotents(somega.semigroup))


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_gamma_hat_idempotents_are_gamma_cd(name):
    # Lemma: E(Gamma-hat) = {gamma(c,d)}
    s, omega, somega = omega_bundle(name)
    pool = {g for (g, d) in somega.pairs}
    idem_cones = {g for g in pool
                  if omega.cs_c.table.mul(g, g) == g}
    assert idem_cones == set(omega.gamma_of.values())


def test_phi_lz2_pairs():
    # the rho-side collapses for LZ2; pairs keep phi injective
    s, omega, somega = omega_bundle("left-zero:2")
    gammas = {g for (g, d) in somega.pairs}
    deltas = {d for (g, d) in somega.pairs}
    assert len(gammas) == 1 and len(deltas) == 2 and somega.order == 2
    _, _, cert = phi_roundtrip(s, omega=omega, somega=somega)
    assert cert.ok


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_phi_roundtrip(name):
    s, omega, somega = omega_bundle(name)
    _, _, cert = phi_roundtrip(s, omega=omega, somega=somega)
    assert cert.ok and cert.weakly_reductive
    assert somega.order == s.order


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_psi_roundtrip(name):
    s, omega, somega = omega_bundle(name)
    f_cert, g_cert = psi_roundtrip(omega, somega)
    assert f_cert.ok and g_cert.ok


def test_psi_object_counts():
    _, omega, somega = omega_bundle("full-transformation:2")
    f_cert, g_cert = psi_roundtrip(omega, somega)
    assert len(f_cert.functor.objects) == 2  # L-classes of idempotents of T2
    _, omega, somega = omega_bundle("cyclic:3")
    f_cert, g_cert = psi_roundtrip(omega, somega)
    assert len(f_cert.functor.objects) == 1


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_restrict_to_normal_regular_presets(name):
    s, omega, somega = omega_bundle(name)
    assert restrict_to_normal(omega, somega) == frozenset(range(somega.order))


def test_nonregular_witness_full_pipeline():
    w = validate_table([list(r) for r in NONREGULAR_CONCORDANT])
    omega = build_omega_s(w)
    somega = build_s_omega(omega)
    assert somega.order == 4
    _, _, cert = phi_roundtrip(w, omega=omega, somega=somega)
    f_cert, g_cert = psi_roundtrip(omega, somega)
    assert cert.ok and f_cert.ok and g_cert.ok
    keep = restrict_to_normal(omega, somega)
    # exactly the regular elements survive the normal restriction
    assert len(keep) == 3
    assert set(somega.idempotent_pairs.values()) <= keep


def test_identity_cc_morphism():
    s, omega, somega = omega_bundle("semilattice-chain:2")
    h = SemigroupMap(s, s, tuple(s.elements))
    ccm = cc_morphism_from_good_hom(h, omega, omega)
    validate_cc_morphism(ccm, omega, omega)
    sm = apply_cc_morphism(ccm, somega, somega)
    assert sm.image == tuple(range(somega.order))


def test_collapse_cc_morphism():
    z3, omega1, so1 = omega_bundle("cyclic:3")
    triv = validate_table([[0]])
    omega2 = build_omega_s(triv)
    so2 = build_s_omega(omega2)
    h = SemigroupMap(z3, triv, (0, 0, 0))
    ccm = cc_morphism_from_good_hom(h, omega1, omega2)
    sm = apply_cc_morphism(ccm, so1, so2)
    assert set(sm.image) == {0}
    # surjective good homomorphism
    from concordia.semigroups import is_good_homomorphism
    assert is_good_homomorphism(sm)


def test_projection_cc_morphism_phi_conjugate():
    prod = presets.preset("direct-product:semilattice-chain:2*cyclic:3")
    sl2 = semigroup("semilattice-chain:2")
    omega1 = build_omega_s(prod)
    so1 = build_s_omega(omega1)
    _, omega2, so2 = omega_bundle("semilattice-chain:2")
    h = SemigroupMap(prod, sl2, tuple(i // 3 for i in range(6)))
    ccm = cc_morphism_from_good_hom(h, omega1, omega2)
    sm = apply_cc_morphism(ccm, so1, so2)
    _, _, c1 = phi_roundtrip(prod, omega=omega1, somega=so1)
    _, _, c2 = phi_roundtrip(sl2, omega=omega2, somega=so2)
    for a in prod.elements:
        assert sm.image[c1.mapping[a]] == c2.mapping[h(a)]


def test_full_pipeline_on_every_small_concordant_semigroup():
    # the strongest instance check: Omega, S-Omega, phi, psi, CC axioms on
    # both sides, the full ICC battery and the normal restriction, over every
    # canonical concordant semigroup of order <= 4 (86 of them)
    from concordia.search import canonical_form, enumerate_tables
    from concordia.categories import check_consistent_axioms
    from concordia.icc import build_icc, check_icc_axioms
    from concordia.semigroups import FiniteSemigroup
    count = 0
    for n in (1, 2, 3, 4):
        for table in enumerate_tables(n):
            if canonical_form(table) != table:
                continue
            s = FiniteSemigroup(table)
            if not is_concordant(s).concordant:
                continue
            count += 1
            omega = build_omega_s(s)
            so = build_s_omega(omega)
            assert so.order == s.order, table
            _, _, cert = phi_roundtrip(s, omega=omega, somega=so)
            fc, gc = psi_roundtrip(omega, so)
            assert cert.ok and fc.ok and gc.ok, table
            assert check_consistent_axioms(omega.C).ok, table
            assert check_consistent_axioms(omega.D).ok, table
            rep = check_icc_axioms(build_icc(omega, so))
            assert rep.ok, (table, rep.lines())
            restrict_to_normal(omega, so)
    assert count == 86


def test_total_collapse_is_a_cc_morphism():
    # collapsing both sides onto the bottom idempotent pair is Omega-h for
    # the good homomorphism x -> 0, so M1-M3 hold
    s, omega, somega = omega_bundle("semilattice-chain:2")
    c, d = omega.C, omega.D
    f = FunctorData(c, c, {a: 0 for a in c.objects},
                    {m: c.identities[0] for m in c.morphisms})
    g = FunctorData(d, d, {a: 0 for a in d.objects},
                    {m: d.identities[0] for m in d.morphisms})
    validate_cc_morphism(CCMorphism(f, g), omega, omega)
    sm = apply_cc_morphism(CCMorphism(f, g), somega, somega)
    assert set(sm.image) == {somega.idempotent_pairs[(0, 0)]}


def test_cc_morphism_axiom_violation_detected():
    # identity on the left with a collapse on the right sends (S1, 1S) to
    # the pair (S1, 0S), which is not in E_Omega: M2 must fire
    s, omega, somega = omega_bundle("semilattice-chain:2")
    c, d = omega.C, omega.D
    f = FunctorData(c, c, {a: a for a in c.objects}, {m: m for m in c.morphisms})
    g = FunctorData(d, d, {a: 0 for a in d.objects},
                    {m: d.identities[0] for m in d.morphisms})
    with pytest.raises(MAxiomViolation) as exc:
        validate_cc_morphism(CCMorphism(f, g), omega, omega)
    assert exc.value.axiom == "M2"


# --- Omega(S^op) is Omega(S) transposed, id for id -------------------------

def same_data(a, b, seen=None):
    """Equality of pipeline data field by field, ignoring the `side` label of
    a category and memo fields (names starting with '_')."""
    seen = set() if seen is None else seen
    if (id(a), id(b)) in seen:
        return True
    if dataclasses.is_dataclass(a):
        ok = type(a) is type(b) and all(
            same_data(getattr(a, f.name), getattr(b, f.name), seen)
            for f in dataclasses.fields(a)
            if f.name != "side" and not f.name.startswith("_"))
    elif isinstance(a, dict):
        ok = (isinstance(b, dict) and a.keys() == b.keys()
              and all(same_data(v, b[k], seen) for k, v in a.items()))
    elif isinstance(a, (tuple, list)):
        ok = (type(a) is type(b) and len(a) == len(b)
              and all(same_data(x, y, seen) for x, y in zip(a, b)))
    else:
        ok = a == b
    if ok:
        seen.add((id(a), id(b)))
    return ok


def test_transpose_holds_its_cross_connection_weakly():
    # omega and omega.transposed() form no reference cycle: dropping omega
    # frees it at once, and the transpose then builds its transpose anew
    import gc
    import weakref
    gc.disable()
    try:
        omega = build_omega_s(semigroup("brandt-b2"))
        t = omega.transposed()
        assert t.transposed() is omega
        ref = weakref.ref(omega)
        del omega
        assert ref() is None
        again = t.transposed()
        assert again.C is t.D and again.transposed() is t
        assert again.e_omega == tuple(sorted((d, c) for c, d in t.e_omega))
    finally:
        gc.enable()


def assert_op_is_transpose(s, mode):
    omega = build_omega_s(s, mode)
    t = omega.transposed()
    assert t.transposed() is omega
    op = build_omega_s(s.op(), mode)
    # categories, cone lists, duals, Gamma/Delta, M-sets, gamma_of/delta_of
    # and E_Omega, in one walk
    assert same_data(op, t)
    assert op.e_omega == t.e_omega == tuple(sorted((d, c) for c, d in omega.e_omega))
    assert op.gamma_of == {(d, c): i for (c, d), i in omega.delta_of.items()}


def test_same_data_sees_a_difference():
    omega = omega_bundle("left-zero:2")[1]
    assert same_data(omega, omega)
    assert not same_data(omega, omega.transposed())
    changed = dataclasses.replace(omega, gamma_of={**omega.gamma_of, (0, 0): -1})
    assert not same_data(omega, changed)


@pytest.mark.parametrize("mode", [PRINCIPAL_ONLY, EPSILON_STAR_U])
@pytest.mark.parametrize("name", SMALL_PRESETS + ("direct-product:left-zero:2*cyclic:2",))
def test_omega_of_op_is_transposed_presets(name, mode):
    assert_op_is_transpose(semigroup(name), mode)


@pytest.mark.parametrize("mode", [PRINCIPAL_ONLY, EPSILON_STAR_U])
def test_omega_of_op_is_transposed_up_to_order_4(mode):
    for table in concordant_classes(4):
        assert_op_is_transpose(validate_table(table), mode)


@pytest.mark.slow
@pytest.mark.parametrize("mode", [PRINCIPAL_ONLY, EPSILON_STAR_U])
def test_omega_of_op_is_transposed_order_5(mode):
    for table in concordant_classes(5):
        if len(table) == 5:
            assert_op_is_transpose(validate_table(table), mode)


def test_right_side_helpers_are_left_side_on_transpose():
    _, omega, _ = omega_bundle("brandt-b2")
    t = omega.transposed()
    for cobj in omega.C.objects:
        for dobj in omega.D.objects:
            assert delta_values(omega, cobj, dobj) == \
                omega.dual_d.h[omega.delta.objects[cobj]].values[dobj]
            assert gamma_values(t, dobj, cobj) == delta_values(omega, cobj, dobj)
    for cd in omega.e_omega:
        assert delta_cd(omega, cd) == omega.delta_of[cd]
    with pytest.raises(PairNotInEOmega):
        delta_cd(omega, (-1, -1))
