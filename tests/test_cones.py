import re
from collections import Counter

import pytest

from concordia import presets
from concordia.categories import build_ideal_category, locate_triple, morphism_flags
from concordia.cones import (
    EPSILON_STAR_U,
    FULL_ENUMERATION,
    PRINCIPAL_ONLY,
    BudgetExceeded,
    Cone,
    NotIdempotentCone,
    build_cone_semigroup,
    category_to_lhat_iso,
    compose_cones,
    concordance_of_cone_semigroup,
    cone_flags,
    cone_star,
    enumerate_consistent_cones,
    enumerate_idempotent_cones,
    h_functor,
    is_cone,
    normal_cones,
    principal_cone,
)
from concordia.semigroups import (
    LEFT,
    RIGHT,
    green_classes,
    idempotents,
    is_concordant,
    is_regular,
    starred_relation,
    validate_table,
)
from conftest import SMALL_PRESETS, NONREGULAR_CONCORDANT, concordant_classes


def setup(name, side=LEFT):
    s = presets.preset(name)
    return s, build_ideal_category(s, side)


def test_principal_cones_sl2():
    s, c = setup("semilattice-chain:2")
    pc1 = principal_cone(c, 1)
    assert pc1.vertex == 1
    assert [c.label(m) for m in pc1.components] == ["rho(0,0,1)", "rho(1,1,1)"]
    assert cone_flags(c, pc1).idempotent
    pc0 = principal_cone(c, 0)
    assert pc0.vertex == 0 and cone_flags(c, pc0).idempotent


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_principal_cone_of_idempotent_is_identity_cone(name):
    s, c = setup(name)
    for e in idempotents(s):
        cone = principal_cone(c, e)
        assert cone.components[cone.vertex] == c.identities[cone.vertex]


def test_principal_cone_needs_abundance():
    from concordia.semigroups import NotAbundant
    s = presets.monogenic(2, 2)
    c = build_ideal_category(s, LEFT)
    with pytest.raises(NotAbundant):
        principal_cone(c, 0)  # element a has no idempotent in L*_a


def principal_cone_scan(c, a):
    """Reference: rho^a with a* found by a search of the L*-class of a."""
    from concordia.semigroups import NotAbundant
    base = c.semigroup
    es = set(idempotents(base))
    wits = [e for e in starred_relation(base, LEFT).class_of(a) if e in es]
    if not wits:
        raise NotAbundant(f"element {base.name(a)} has no idempotent in its L*-class")
    f = min(wits)
    vertex = next(v for v in c.objects
                  if green_classes(base).l.same(c.object_idem[v], f))
    return Cone(vertex, tuple(locate_triple(c, e, base.mul(e, a), f)
                              for e in c.object_idem))


@pytest.mark.parametrize("name", SMALL_PRESETS + ("monogenic:2,2",))
def test_principal_cone_matches_witness_scan(name):
    from concordia.semigroups import NotAbundant
    s = presets.preset(name)
    for side in (LEFT, RIGHT):
        c = build_ideal_category(s, side)
        for a in s.elements:
            try:
                want = principal_cone_scan(c, a)
            except NotAbundant as exc:
                with pytest.raises(NotAbundant, match=re.escape(str(exc))):
                    principal_cone(c, a)
            else:
                assert principal_cone(c, a) == want


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_principal_cones_form_homomorphism(name):
    # rho^a . rho^b = rho^(ab), exhaustively
    s, c = setup(name)
    cones = {a: principal_cone(c, a) for a in s.elements}
    for a in s.elements:
        for b in s.elements:
            assert compose_cones(c, cones[a], cones[b]) == cones[s.mul(a, b)]


def test_compose_idempotent_cone_selfidentity():
    s, c = setup("full-transformation:2")
    for cone in enumerate_idempotent_cones(c):
        assert compose_cones(c, cone, cone) == cone


def test_sl2_rho1_rho0():
    s, c = setup("semilattice-chain:2")
    assert compose_cones(c, principal_cone(c, 1), principal_cone(c, 0)) \
        == principal_cone(c, 0)


def test_cone_semigroup_z3_is_z3():
    s, c = setup("cyclic:3")
    cs = build_cone_semigroup(c, EPSILON_STAR_U)
    assert cs.order == 3
    f = {a: cs.principal_of[a] for a in s.elements}
    for a in s.elements:
        for b in s.elements:
            assert cs.table.mul(f[a], f[b]) == f[s.mul(a, b)]


def test_cone_semigroup_sl2_two_cones():
    s, c = setup("semilattice-chain:2")
    cs = build_cone_semigroup(c, FULL_ENUMERATION)
    assert cs.order == 2


@pytest.mark.parametrize("name", ["semilattice-chain:2", "cyclic:3", "left-zero:2",
                                  "full-transformation:2"])
def test_cone_modes_agree_on_chain_shaped_presets(name):
    s, c = setup(name)
    full = build_cone_semigroup(c, FULL_ENUMERATION)
    epsu = build_cone_semigroup(c, EPSILON_STAR_U)
    prin = build_cone_semigroup(c, PRINCIPAL_ONLY)
    assert set(full.cones) == set(epsu.cones) == set(prin.cones)


def test_cone_modes_b2_gap():
    # full = epsU strictly contains the principal cones for B2: the object
    # poset has two maximal objects, so two extra idempotent cones satisfy
    # the compatibility equations and are not principal
    s, c = setup("brandt-b2")
    full = build_cone_semigroup(c, FULL_ENUMERATION)
    epsu = build_cone_semigroup(c, EPSILON_STAR_U)
    prin = build_cone_semigroup(c, PRINCIPAL_ONLY)
    assert set(full.cones) == set(epsu.cones)
    assert set(prin.cones) < set(epsu.cones)
    extra = set(epsu.cones) - set(prin.cones)
    assert len(extra) == 2
    assert all(cone_flags(c, cone).idempotent for cone in extra)


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_mode_containments(name):
    s, c = setup(name)
    full = set(build_cone_semigroup(c, FULL_ENUMERATION).cones)
    epsu = set(build_cone_semigroup(c, EPSILON_STAR_U).cones)
    prin = set(build_cone_semigroup(c, PRINCIPAL_ONLY).cones)
    assert prin <= epsu <= full


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_cone_flag_implications(name):
    s, c = setup(name)
    for cone in enumerate_consistent_cones(c):
        fl = cone_flags(c, cone)
        assert fl.consistent
        if fl.idempotent:
            assert fl.normal
        if fl.normal:
            assert fl.consistent


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_normal_subsemigroup_full_and_regular_for_regular_presets(name):
    s, c = setup(name)
    assert is_regular(s)
    cs = build_cone_semigroup(c, EPSILON_STAR_U)
    ids, full = normal_cones(cs)
    assert full  # E(C-hat-bar) = E(C-hat) holds in the regular case
    assert set(idempotents(cs.table)) <= ids


def test_normal_subsemigroup_not_full_for_nonregular_witness():
    # an idempotent cone with a component that has no
    # normal factorisation; E(C-hat-bar) is strictly smaller than E(C-hat)
    w = validate_table([list(r) for r in NONREGULAR_CONCORDANT])
    c = build_ideal_category(w, LEFT)
    cs = build_cone_semigroup(c, EPSILON_STAR_U)
    assert cs.order == 5
    ids, full = normal_cones(cs)
    assert not full
    assert len(ids) == 3 and len(cs.idempotent_ids()) == 4
    # ... and C-hat is NOT concordant (Theorem falsified on this instance):
    # a product of two idempotent cones is not regular in C-hat
    cc = concordance_of_cone_semigroup(cs)
    assert not cc.report.concordant
    assert cc.report.abundant and not cc.report.idempotents_regular


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_cone_semigroup_concordant(name):
    s, c = setup(name)
    cc = concordance_of_cone_semigroup(build_cone_semigroup(c, EPSILON_STAR_U))
    assert cc.report.concordant
    assert cc.lemma_ab_ok


def test_h_functor_sl2():
    s, c = setup("semilattice-chain:2")
    cs = build_cone_semigroup(c, EPSILON_STAR_U)
    rho1 = cs.index[principal_cone(c, 1)]
    rho0 = cs.index[principal_cone(c, 0)]
    h = h_functor(cs, rho1)
    # H(eps;c) = {eps * f-degree : f in hom(c_eps, c)}, and representability
    # forces |H(eps;c)| = |hom(c_eps,c)|
    assert h.values[0] == frozenset({rho0})
    assert h.values[1] == frozenset({rho0, rho1})
    assert h.m_set == frozenset({1})
    h0 = h_functor(cs, rho0)
    assert h0.values == (frozenset({rho0}), frozenset({rho0}))
    assert h0.m_set == frozenset({0})


def test_h_functor_rejects_non_idempotent():
    s, c = setup("cyclic:3")
    cs = build_cone_semigroup(c, EPSILON_STAR_U)
    non_idem = next(i for i in range(cs.order)
                    if i not in cs.idempotent_ids())
    with pytest.raises(NotIdempotentCone):
        h_functor(cs, non_idem)


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_h_functor_representability(name):
    s, c = setup(name)
    cs = build_cone_semigroup(c, EPSILON_STAR_U)
    for eps in cs.idempotent_ids():
        h = h_functor(cs, eps)
        for obj in c.objects:
            assert len(h.values[obj]) == len(c.hom(h.vertex, obj))


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_green_relations_of_idempotent_cones(name):
    # L iff same vertex; R iff same H-functor (extensionally)
    s, c = setup(name)
    cs = build_cone_semigroup(c, EPSILON_STAR_U)
    g = green_classes(cs.table)
    for e1 in cs.idempotent_ids():
        h1 = h_functor(cs, e1)
        for e2 in cs.idempotent_ids():
            h2 = h_functor(cs, e2)
            assert g.l.same(e1, e2) == (cs.cones[e1].vertex == cs.cones[e2].vertex)
            assert g.r.same(e1, e2) == h1.same_functor(h2)


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_category_iso_to_lhat(name):
    s, c = setup(name)
    cs = build_cone_semigroup(c, EPSILON_STAR_U)
    cert = category_to_lhat_iso(cs)
    assert cert.ok, cert.detail


def test_rho_tilde_injective_iff_right_regular_rep_injective():
    # LZ2: all right translations coincide, so rho is not injective and the
    # principal cones collapse
    s, c = setup("left-zero:2")
    cs = build_cone_semigroup(c, PRINCIPAL_ONLY)
    assert cs.order == 1
    assert cs.principal_of[0] == cs.principal_of[1]
    # T2 is a monoid: right regular representation injective
    s2, c2 = setup("full-transformation:2")
    cs2 = build_cone_semigroup(c2, PRINCIPAL_ONLY)
    assert cs2.order == 4


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_joint_principal_pair_injective_when_weakly_reductive(name):
    from concordia.semigroups import is_weakly_reductive
    s = presets.preset(name)
    assert is_weakly_reductive(s)
    cl = build_ideal_category(s, LEFT)
    cr = build_ideal_category(s, RIGHT)
    pairs = {(principal_cone(cl, a), principal_cone(cr, a))
             for a in s.elements}
    assert len(pairs) == s.order


def test_search_budget_exceeded():
    # a BudgetExceeded is not memoised: a later call enumerates the cones
    s, c = setup("full-transformation:2")
    with pytest.raises(BudgetExceeded):
        enumerate_idempotent_cones(c, budget=1)
    cones = enumerate_idempotent_cones(c)
    assert cones and cones == tuple(sorted(cones, key=lambda k: (k.vertex, k.components)))
    assert enumerate_idempotent_cones(c, budget=1) is cones


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_idempotent_cones_are_enumerated_once(name, monkeypatch):
    # the epsilon-mode cone semigroup and CC6 read one enumeration of each
    # category's idempotent cones
    from concordia import cones as cones_mod
    from concordia.categories import check_consistent_axioms
    from concordia.crossconn import build_omega_s
    calls, seen = Counter(), []
    cones_with_vertex = cones_mod._cones_with_vertex

    def counting(c, v, idempotent_only, budget=None):
        if idempotent_only:
            seen.append(c)  # keeps each id alive, so no id is reused
            calls[id(c), v] += 1
        return cones_with_vertex(c, v, idempotent_only, budget)

    monkeypatch.setattr(cones_mod, "_cones_with_vertex", counting)
    omega = build_omega_s(presets.preset(name), EPSILON_STAR_U)
    assert check_consistent_axioms(omega.C).ok and check_consistent_axioms(omega.D).ok
    for c in (omega.C, omega.D):
        assert [calls[id(c), v] for v in c.objects] == [1] * c.n_objects
    assert set(calls.values()) == {1}


def test_table_associativity_validated():
    # build_cone_semigroup runs validate_table on the composition table
    s, c = setup("brandt-b2")
    cs = build_cone_semigroup(c, EPSILON_STAR_U)
    assert cs.table.order == cs.order


@pytest.mark.parametrize("name", ["semilattice-chain:2", "cyclic:3", "brandt-b2",
                                  "full-transformation:2"])
def test_abstract_ingestion_reproduces_cone_semigroup(name):
    # round-trip the category through JSON, dropping the semigroup payload:
    # the search-based fallbacks must reproduce the fast-path results exactly
    import json
    from concordia import serialization as ser
    from concordia.categories import check_consistent_axioms
    backed = build_ideal_category(presets.preset(name), LEFT)
    abstract = ser.category_from_json(
        json.loads(ser.dumps(ser.category_to_json(backed))))
    assert abstract.semigroup is None
    cs_b = build_cone_semigroup(backed, EPSILON_STAR_U)
    cs_a = build_cone_semigroup(abstract, EPSILON_STAR_U)
    assert cs_b.cones == cs_a.cones
    assert cs_b.table.table == cs_a.table.table
    assert normal_cones(cs_b) == normal_cones(cs_a)
    assert check_consistent_axioms(abstract).ok


def test_is_cone_rejects_bad_component_endpoints():
    s, c = setup("semilattice-chain:2")
    good = principal_cone(c, 1)
    assert is_cone(c, good)
    # component at object 1 must land at the vertex 0, not at 1
    bad = Cone(0, (c.identities[0], c.identities[1]))
    assert not is_cone(c, bad)


def two_pass_table(cs):
    """Reference: the Cayley table composed again from the final cones."""
    c, cones = cs.category, cs.cones
    return tuple(tuple(cs.index[compose_cones(c, g1, g2)] for g2 in cones)
                 for g1 in cones)


MODES = (PRINCIPAL_ONLY, EPSILON_STAR_U, FULL_ENUMERATION)


def sides_of(tables):
    for table in tables:
        s = validate_table([list(r) for r in table])
        for side in (LEFT, RIGHT):
            yield table, s, side, build_ideal_category(s, side)


def test_cone_table_matches_two_pass_up_to_order_4():
    # the table is read off the closure's last pass
    for table, _s, side, c in sides_of(concordant_classes(4)):
        for mode in MODES:
            cs = build_cone_semigroup(c, mode)
            assert list(cs.cones) == sorted(cs.cones, key=lambda k: (k.vertex, k.components))
            assert cs.table.table == two_pass_table(cs), (table, side, mode)


def check_witness_route(tables):
    """Every cone of every cone semigroup is eps * u by the witness that
    concordance_of_cone_semigroup returns; (cases, cones) visited."""
    cases = n_cones = 0
    for table, _s, side, c in sides_of(tables):
        for mode in MODES:
            cs = build_cone_semigroup(c, mode)
            cc = concordance_of_cone_semigroup(cs)
            assert cc.lemma_ab_ok, (table, side, mode)
            assert sorted(cc.witness) == list(range(cs.order))
            for i, (eps, u) in cc.witness.items():
                assert cone_flags(c, cs.cones[eps]).idempotent, (table, side, mode, i)
                assert morphism_flags(c, u).bimorphism, (table, side, mode, i)
                assert cone_star(c, cs.cones[eps], u) == cs.cones[i], (table, side, mode, i)
            cases += 1
            n_cones += cs.order
    return cases, n_cones


def test_eps_u_witnesses_up_to_order_4():
    assert check_witness_route(concordant_classes(4)) == (516, 1994)


@pytest.mark.slow
def test_eps_u_witnesses_order_5():
    tables = [t for t in concordant_classes(5) if len(t) == 5]
    assert check_witness_route(tables) == (2214, 12724)


def normal_census(tables, mode):
    """(sides, cones, normal cones, sides whose normal cones are not full)."""
    sides = n_cones = normal = not_full = 0
    for table, s, side, c in sides_of(tables):
        cs = build_cone_semigroup(c, mode)
        ids, full = normal_cones(cs)
        sides += 1
        n_cones += cs.order
        normal += len(ids)
        if not full:
            assert not is_regular(s), (table, side)
            not_full += 1
    return sides, n_cones, normal, not_full


@pytest.mark.parametrize("mode, counts", [(PRINCIPAL_ONLY, (172, 574, 572, 0)),
                                          (EPSILON_STAR_U, (172, 710, 706, 2))])
def test_normal_cones_census_up_to_order_4(mode, counts):
    assert normal_census(concordant_classes(4), mode) == counts


@pytest.mark.slow
@pytest.mark.parametrize("mode, counts", [(PRINCIPAL_ONLY, (910, 3946, 3914, 0)),
                                          (EPSILON_STAR_U, (910, 5386, 5316, 26))])
def test_normal_cones_census_up_to_order_5(mode, counts):
    assert normal_census(concordant_classes(5), mode) == counts


@pytest.mark.parametrize("mode", MODES)
def test_build_cone_semigroup_computes_no_normal_factorisation(mode, monkeypatch):
    # the normal cones are computed by normal_cones only, on demand
    def fail(c, m):
        raise AssertionError("build_cone_semigroup asked for a normal factorisation")
    monkeypatch.setattr("concordia.categories.normal_factorisation", fail)
    for _table, _s, _side, c in sides_of(concordant_classes(4)):
        build_cone_semigroup(c, mode)
