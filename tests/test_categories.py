import dataclasses

import pytest

from concordia import presets
from concordia.categories import (
    AxiomFailure,
    CategoryError,
    MorphismNotInCategory,
    build_ideal_category,
    check_consistent_axioms,
    check_normal_axioms,
    consistent_factorisation,
    epi_component,
    from_parts,
    is_consistent_bimorphism,
    locate_triple,
    morphism_flags,
    normal_factorisation,
    normal_subcategory,
    object_of_idempotent,
    restrict_morphisms,
    validate_category,
    _cor_ideal_closure,
    _cor_ideal_morphisms,
)
from concordia.semigroups import (
    LEFT,
    RIGHT,
    adjoin_identity,
    green_classes,
    idempotents,
    validate_table,
)
from conftest import (
    NONREGULAR_CONCORDANT,
    SMALL_PRESETS,
    concordant_classes,
    omega_bundle,
    semigroup,
)


def lcat(name):
    return build_ideal_category(presets.preset(name), LEFT)


def test_morphism_triple_accessor():
    from concordia.categories import MorphismTriple, morphism_triple
    c = lcat("semilattice-chain:2")
    t = morphism_triple(c, c.triple_index[(1, 1, 0)])
    assert t == MorphismTriple(1, 0, 1, LEFT)
    r = build_ideal_category(presets.left_zero(2), RIGHT)
    assert morphism_triple(r, r.identities[0]).side == RIGHT


def test_sl2_category_shape():
    c = lcat("semilattice-chain:2")
    assert c.n_objects == 2 and c.n_morphisms == 5
    labels = {c.label(m) for m in c.morphisms}
    assert labels == {"rho(0,0,0)", "rho(0,0,1)", "rho(1,0,0)",
                      "rho(1,0,1)", "rho(1,1,1)"}
    validate_category(c)


def test_z3_category_is_the_group():
    c = lcat("cyclic:3")
    assert c.n_objects == 1 and c.n_morphisms == 3
    z3 = presets.cyclic(3)
    # hom(S0, S0) = S with composition the group table
    for u in range(3):
        for v in range(3):
            cu, cv = c.triple_index[(0, 0, u)], c.triple_index[(0, 0, v)]
            assert c.compose(cu, cv) == c.triple_index[(0, 0, z3.mul(u, v))]


def test_lz2_both_sides():
    left = build_ideal_category(presets.left_zero(2), LEFT)
    assert left.n_objects == 1 and left.n_morphisms == 1
    right = build_ideal_category(presets.left_zero(2), RIGHT)
    assert right.n_objects == 2 and right.n_morphisms == 4
    assert (0, 1) not in right.leq and (1, 0) not in right.leq
    for m in right.morphisms:
        assert morphism_flags(right, m).isomorphism


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_hom_sizes_count_eSf(name):
    s = presets.preset(name)
    for side in (LEFT, RIGHT):
        c = build_ideal_category(s, side)
        base = c.semigroup
        for a in c.objects:
            for b in c.objects:
                e, f = c.object_idem[a], c.object_idem[b]
                size = sum(1 for u in base.elements
                           if base.mul(base.mul(e, u), f) == u)
                assert len(c.hom(a, b)) == size


def test_classify_sl2():
    c = lcat("semilattice-chain:2")
    incl = morphism_flags(c, c.triple_index[(0, 1, 0)])
    assert incl.mono and incl.inclusion and not incl.epi
    retr = morphism_flags(c, c.triple_index[(1, 0, 0)])
    assert retr.epi and retr.retraction and not retr.mono
    mid = morphism_flags(c, c.triple_index[(1, 1, 0)])
    assert not mid.mono and not mid.epi and not mid.isomorphism


def test_classify_z3_all_isos():
    c = lcat("cyclic:3")
    assert all(morphism_flags(c, m).isomorphism for m in c.morphisms)


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_mono_epi_flags_match_literal_cancellability(name):
    # independent oracle: literal cancellation over the composition table
    c = lcat(name)
    for m in c.morphisms:
        fl = morphism_flags(c, m)
        lit_mono = all(
            len({c.compose(x, m) for x in c.hom(p, c.dom[m])})
            == len(c.hom(p, c.dom[m])) for p in c.objects)
        lit_epi = all(
            len({c.compose(m, x) for x in c.hom(c.cod[m], p)})
            == len(c.hom(c.cod[m], p)) for p in c.objects)
        assert fl.mono == lit_mono and fl.epi == lit_epi


@pytest.mark.parametrize("name", ["brandt-b2", "semilattice-chain:3"])
def test_triple_canonicalisation_soundness(name):
    # rho(e,u,f) = rho(g,v,h) iff same L-classes and the same literal map
    s = presets.preset(name)
    c = build_ideal_category(s, LEFT)
    g = green_classes(s)
    s1 = adjoin_identity(s)
    triples = []
    for e in idempotents(s):
        for f in idempotents(s):
            for u in s.elements:
                if s.mul(s.mul(e, u), f) == u:
                    triples.append((e, u, f))
    for (e, u, f) in triples:
        se = {s1.mul(x, e) for x in range(s1.order)}
        for (e2, u2, f2) in triples:
            same_objects = g.l.same(e, e2) and g.l.same(f, f2)
            same_map = same_objects and all(
                s.mul(x, u) == s.mul(x, u2) for x in se)
            located_equal = (locate_triple(c, e, u, f)
                             == locate_triple(c, e2, u2, f2))
            assert located_equal == same_map


def test_consistent_factorisation_sl2():
    c = lcat("semilattice-chain:2")
    m = c.triple_index[(1, 1, 0)]  # rho(1,0,1)
    fact = consistent_factorisation(c, m)
    assert c.label(fact.q) == "rho(1,0,0)"
    assert fact.u == c.identities[0]
    assert c.label(fact.j) == "rho(0,0,1)"
    assert fact.image == 0


def test_consistent_factorisation_identity():
    c = lcat("cyclic:2")
    i = c.identities[0]
    fact = consistent_factorisation(c, i)
    assert fact.q == fact.u == fact.j == i


def test_consistent_factorisation_t2_constant():
    t2 = presets.full_transformation(2)
    c = build_ideal_category(t2, LEFT)
    one = t2.names.index("[0,1]")
    c0 = t2.names.index("[0,0]")
    m = locate_triple(c, one, c0, c0)
    fact = consistent_factorisation(c, m)
    assert fact.image == object_of_idempotent(c, c0)
    assert morphism_flags(c, fact.u).bimorphism


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_factorisation_reassembles_and_epi_component_unique(name):
    c = lcat(name)
    for m in c.morphisms:
        fact = consistent_factorisation(c, m)
        assert c.compose_many(fact.q, fact.u, fact.j) == m
        # oracle: every retraction/bimorphism/inclusion decomposition has the
        # same epimorphic component
        components = set()
        for q in c.morphisms:
            if c.dom[q] != c.dom[m] or not morphism_flags(c, q).retraction:
                continue
            for (b, cc), j in c.inclusions.items():
                if cc != c.cod[m]:
                    continue
                for u in c.hom(c.cod[q], b):
                    if morphism_flags(c, u).bimorphism and \
                            c.compose_many(q, u, j) == m:
                        components.add(c.compose(q, u))
        assert components == {fact.epi_component}


def test_normal_factorisation_sl2():
    c = lcat("semilattice-chain:2")
    m = c.triple_index[(1, 1, 0)]
    fact = normal_factorisation(c, m)
    assert fact is not None and fact.kind == "normal"
    assert (c.label(fact.q), fact.u, c.label(fact.j)) == \
        ("rho(1,0,0)", c.identities[0], "rho(0,0,1)")


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_normal_factorisation_regular_presets_total(name):
    # L(S) of a regular semigroup is a normal category: NF for every morphism
    c = lcat(name)
    for m in c.morphisms:
        fact = normal_factorisation(c, m)
        assert fact is not None
        assert c.compose_many(fact.q, fact.u, fact.j) == m
        assert morphism_flags(c, fact.u).isomorphism


def test_normal_factorisation_missing_for_nonregular_bimorphism():
    w = validate_table([list(r) for r in NONREGULAR_CONCORDANT])
    c = build_ideal_category(w, LEFT)
    m = locate_triple(c, 2, 1, 3)  # the non-regular element's bimorphism
    assert morphism_flags(c, m).bimorphism
    assert normal_factorisation(c, m) is None


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_sigma_in_cor_in_full_ideal(name):
    c = lcat(name)
    for top in c.objects:
        subs = set(c.subobjects_of(top))
        sigma = {j for (a, b), j in c.inclusions.items()
                 if a in subs and b in subs}
        cor = set(_cor_ideal_morphisms(c, top))
        full = {m for m in c.morphisms
                if c.dom[m] in subs and c.cod[m] in subs}
        assert sigma <= cor <= full


def test_consistent_bimorphism_identity():
    c = lcat("semilattice-chain:2")
    ok, ext = is_consistent_bimorphism(c, c.identities[1])
    assert ok
    assert ext.object_map == {0: 0, 1: 1}


def test_consistent_bimorphism_rejects_non_bimorphism():
    from concordia.categories import NotBimorphism
    c = lcat("semilattice-chain:2")
    with pytest.raises(NotBimorphism):
        is_consistent_bimorphism(c, c.triple_index[(0, 1, 0)])


@pytest.mark.parametrize("name", ["full-transformation:2", "brandt-b2", "cyclic:3"])
def test_all_bimorphisms_consistent(name):
    c = lcat(name)
    for m in c.morphisms:
        if morphism_flags(c, m).bimorphism:
            ok, _ = is_consistent_bimorphism(c, m)
            assert ok, c.label(m)


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_cc_axioms_pass_for_concordant_presets(name):
    for side in (LEFT, RIGHT):
        rep = check_consistent_axioms(build_ideal_category(presets.preset(name), side))
        assert rep.ok, rep.lines()


def test_cc_axioms_monogenic_ideal_category_passes():
    # the non-abundant element a is invisible to the idempotent-generated
    # ideals: L(<a | a^4=a^2>) is a one-object category isomorphic to L(Z2)
    # and genuinely satisfies CC1-CC6; the monogenic failure is caught by the
    # concordance gate instead
    c = build_ideal_category(presets.monogenic(2, 2), LEFT)
    assert c.n_objects == 1 and c.n_morphisms == 2
    rep = check_consistent_axioms(c)
    assert rep.ok


def test_cc2_fails_without_split_inclusion():
    # two-object poset category with only the inclusion
    c = from_parts(
        2, [(0, 1)],
        [(0, 0, True), (1, 1, True), (0, 1, True)],
        [(0, 0, 0), (1, 1, 1), (0, 2, 2), (2, 1, 2)])
    validate_category(c)
    rep = check_consistent_axioms(c)
    assert not rep.axioms["CC2"]
    assert "does not split" in rep.witnesses["CC2"]


def test_cc3_fails_without_factorisation():
    # objects a, b incomparable; x: a -> a idempotent, f: a -> b with xf = f,
    # so f is not mono and admits no retraction/bimorphism/inclusion form
    c = from_parts(
        2, [],
        [(0, 0, True), (0, 0, False), (1, 1, True), (0, 1, False)],
        [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (0, 3, 3), (1, 3, 3),
         (2, 2, 2), (3, 2, 3)])
    validate_category(c)
    rep = check_consistent_axioms(c)
    assert not rep.axioms["CC3"]


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_normal_subcategory_regular_presets_whole(name):
    c = lcat(name)
    sub = normal_subcategory(c)
    assert sub.n_morphisms == c.n_morphisms


def test_normal_subcategory_nonregular_witness():
    w = validate_table([list(r) for r in NONREGULAR_CONCORDANT])
    c = build_ideal_category(w, LEFT)
    sub = normal_subcategory(c)
    assert c.n_morphisms - sub.n_morphisms == 1  # exactly rho(2,1,3) drops
    rep = check_normal_axioms(sub)
    assert rep.ok, rep.lines()


def test_restrict_morphisms_requires_identities():
    c = lcat("semilattice-chain:2")
    with pytest.raises(CategoryError):
        restrict_morphisms(c, [m for m in c.morphisms if m != c.identities[0]])


def test_epi_component_of_epi_is_itself():
    c = lcat("brandt-b2")
    for m in c.morphisms:
        if morphism_flags(c, m).epi:
            assert epi_component(c, m) == m


def test_cone_budget_fallbacks():
    from concordia.cones import idempotent_cones_by_vertex
    # over budget with a semigroup behind it: principal cones
    c = lcat("brandt-b2")
    by_vertex = idempotent_cones_by_vertex(c, budget=(0, 0))
    assert all(by_vertex[v] for v in c.objects)
    # over budget without a semigroup: the caller must supply cones
    abstract = from_parts(1, [], [(0, 0, True)], [(0, 0, 0)])
    with pytest.raises(CategoryError):
        idempotent_cones_by_vertex(abstract, budget=(0, 0))


# --- the composable-triple walk against the all-triples scan --------------

def validate_category_scan(c):
    """Reference: category and subobject axioms by the M^3 scan over every
    ordered triple of morphisms."""
    n = c.n_morphisms
    for (m1, m2), m3 in c.compose_table.items():
        if c.cod[m1] != c.dom[m2]:
            raise CategoryError(f"composite of non-composable pair ({m1},{m2})")
        if c.dom[m3] != c.dom[m1] or c.cod[m3] != c.cod[m2]:
            raise CategoryError(f"compose({m1},{m2}) has wrong endpoints")
    for m1 in range(n):
        for m2 in range(n):
            if c.cod[m1] == c.dom[m2] and (m1, m2) not in c.compose_table:
                raise CategoryError(f"missing composite ({m1},{m2})")
            for m3 in range(n):
                if c.cod[m1] == c.dom[m2] and c.cod[m2] == c.dom[m3]:
                    if c.compose(c.compose(m1, m2), m3) != c.compose(m1, c.compose(m2, m3)):
                        raise CategoryError(f"associativity fails at ({m1},{m2},{m3})")
    validate_category(c)  # the subobject checks that follow are shared code


def outcome(check, *args):
    """None when check passes, else the exception's type and message."""
    try:
        check(*args)
    except Exception as exc:  # any escape, a KeyError say, must match too
        return type(exc), str(exc)
    return None


def assert_same_verdict(c):
    want = outcome(validate_category_scan, c)
    assert outcome(validate_category, dataclasses.replace(c)) == want
    return want


def both_sides(table):
    s = validate_table([list(r) for r in table])
    return [build_ideal_category(s, side) for side in (LEFT, RIGHT)]


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_validate_category_matches_scan_on_presets(name):
    for side in (LEFT, RIGHT):
        assert assert_same_verdict(build_ideal_category(semigroup(name), side)) is None


def test_validate_category_matches_scan_up_to_order_4():
    classes = concordant_classes(4)
    assert len(classes) == 1 + 4 + 13 + 68
    for table in classes:
        for c in both_sides(table):
            assert assert_same_verdict(c) is None, table


@pytest.mark.slow
def test_validate_category_matches_scan_order_5():
    classes = [t for t in concordant_classes(5) if len(t) == 5]
    assert len(classes) == 369
    for table in classes:
        for c in both_sides(table):
            assert assert_same_verdict(c) is None, table


def with_entry(c, key, m):
    """c with compose_table[key] set to m, or dropped when m is None."""
    table = dict(c.compose_table)
    if m is None:
        del table[key]
    else:
        table[key] = m
    return dataclasses.replace(c, compose_table=table)


def mutations(c):
    """(kind, category) for every compose entry of c: another morphism of the
    same hom-set, the entry dropped, and a morphism with wrong endpoints."""
    for key, m in c.compose_table.items():
        ends = (c.dom[m], c.cod[m])
        same = [x for x in c.hom(*ends) if x != m]
        if same:
            yield "flip", with_entry(c, key, same[0])
        yield "drop", with_entry(c, key, None)
        other = [x for x in c.morphisms if (c.dom[x], c.cod[x]) != ends]
        if other:
            yield "endpoints", with_entry(c, key, other[0])


@pytest.mark.parametrize("name", ["full-transformation:2", "brandt-b2",
                                  "semilattice-chain:3"])
def test_validate_category_matches_scan_on_mutations(name):
    seen = set()
    for side in (LEFT, RIGHT):
        for kind, c in mutations(build_ideal_category(semigroup(name), side)):
            verdict = assert_same_verdict(c)
            assert verdict is not None or kind == "flip"
            if verdict is not None:
                seen.add((kind, verdict[0], verdict[1].split("(")[0].split()[0]))
    # every failure the walk can report is reached
    assert {("flip", CategoryError, "associativity"),
            ("drop", CategoryError, "missing"),
            ("drop", MorphismNotInCategory, "morphisms"),
            ("endpoints", CategoryError, "compose")} <= seen


def check_functor_scan(f):
    """Reference: functor checks over every ordered pair of morphisms."""
    from concordia.crossconn import NotAFunctor
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
        for m2 in src.morphisms:
            if src.cod[m1] == src.dom[m2]:
                if f.morphisms[src.compose(m1, m2)] != dst.compose(
                        f.morphisms[m1], f.morphisms[m2]):
                    raise NotAFunctor(f"composition not preserved at ({m1},{m2})")


@pytest.mark.parametrize("name", ["full-transformation:2", "brandt-b2",
                                  "semilattice-chain:3"])
def test_check_functor_matches_scan_on_corrupted_images(name):
    from concordia.crossconn import check_functor
    _, omega, _ = omega_bundle(name)
    failures = 0
    for functor in (omega.gamma, omega.delta):
        assert outcome(check_functor, functor) is None
        dst = functor.target
        for m, fm in functor.morphisms.items():
            for other in dst.hom(dst.dom[fm], dst.cod[fm]):
                if other == fm:
                    continue
                bad = dataclasses.replace(
                    functor, morphisms={**functor.morphisms, m: other})
                want = outcome(check_functor_scan, bad)
                assert outcome(check_functor, bad) == want
                failures += want is not None
                break
    assert failures > 0


def cor_ideal_scan(c, top):
    """Reference: the morphisms of <top> by closing the inclusions and
    retractions among the subobjects of top under every composable pair."""
    subs = set(c.subobjects_of(top))
    closed = {m for m in c.morphisms if c.dom[m] in subs and c.cod[m] in subs
              and (c.is_inclusion(m) or morphism_flags(c, m).retraction)}
    while True:
        more = {c.compose(x, y) for x in closed for y in closed
                if c.cod[x] == c.dom[y]} - closed
        if not more:
            return tuple(sorted(closed))
        closed |= more


@pytest.mark.parametrize("name", SMALL_PRESETS + ("direct-product:brandt-b2*cyclic:2",))
def test_outgoing_and_cor_ideal_memo(name):
    for side in (LEFT, RIGHT):
        c = build_ideal_category(presets.preset(name), side)
        for a in c.objects:
            assert c.outgoing(a) == tuple(m for m in c.morphisms if c.dom[m] == a)
            memo = _cor_ideal_morphisms(c, a)
            assert memo == _cor_ideal_closure(c, a) == cor_ideal_scan(c, a)
            assert _cor_ideal_morphisms(c, a) is memo
        # memos are not fields of a copy
        copy = dataclasses.replace(c)
        assert copy._outgoing is None and copy._cor == {} and copy._flags == {}
