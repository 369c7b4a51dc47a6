import dataclasses
import math
from collections import Counter

import pytest

from concordia import categories, presets
from concordia.categories import (
    AxiomFailure,
    AxiomReport,
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
from concordia.cones import EPSILON_STAR_U, PRINCIPAL_ONLY, enumerate_idempotent_cones
from concordia.semigroups import (
    LEFT,
    RIGHT,
    adjoin_identity,
    green_classes,
    idempotents,
    is_abundant,
    starred_relation,
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
        [(0, 2), (1,), (2,)])
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
        [(0, 1, 3), (1, 1, 3), (2,), (3,)])
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
    abstract = from_parts(1, [], [(0, 0, True)], [(0,)])
    with pytest.raises(CategoryError):
        idempotent_cones_by_vertex(abstract, budget=(0, 0))


# --- the composable-triple walk against the all-triples scan --------------

def validate_category_scan(c):
    """Reference: category and subobject axioms by the M^3 scan over every
    ordered triple of morphisms."""
    n = c.n_morphisms
    table = c.compose_table
    for (m1, m2), m3 in table.items():
        if c.cod[m1] != c.dom[m2]:
            raise CategoryError(f"composite of non-composable pair ({m1},{m2})")
        if c.dom[m3] != c.dom[m1] or c.cod[m3] != c.cod[m2]:
            raise CategoryError(f"compose({m1},{m2}) has wrong endpoints")
    for m1 in range(n):
        for m2 in range(n):
            if c.cod[m1] == c.dom[m2] and (m1, m2) not in table:
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


def with_entry(c, m1, i, m):
    """c with entry i of rows[m1] set to m."""
    rows = list(c.rows)
    rows[m1] = rows[m1][:i] + (m,) + rows[m1][i + 1:]
    return dataclasses.replace(c, rows=tuple(rows))


def mutations(c):
    """(kind, category) for every compose entry of c: another morphism of the
    same hom-set, and a morphism with wrong endpoints.  A complete row has
    no entry to drop."""
    for m1, row in enumerate(c.rows):
        for i, m in enumerate(row):
            ends = (c.dom[m], c.cod[m])
            same = [x for x in c.hom(*ends) if x != m]
            if same:
                yield "flip", with_entry(c, m1, i, same[0])
            other = [x for x in c.morphisms if (c.dom[x], c.cod[x]) != ends]
            if other:
                yield "endpoints", with_entry(c, m1, i, other[0])


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
            ("endpoints", CategoryError, "compose")} <= seen


def subobject_scan(c):
    """Reference: the partial-order and inclusion-composition checks of
    validate_category over every pair of order pairs."""
    for (a, b) in c.leq:
        if (b, a) in c.leq and a != b:
            raise CategoryError(f"leq not antisymmetric on {(a, b)}")
        for (b2, d) in c.leq:
            if b2 == b and (a, d) not in c.leq:
                raise CategoryError(f"leq not transitive via {(a, b, d)}")
    for (a, b), j in c.inclusions.items():
        if (a, b) not in c.leq or c.dom[j] != a or c.cod[j] != b:
            raise CategoryError(f"bad inclusion for {(a, b)}")
    for (a, b) in c.leq:
        for (b2, d) in c.leq:
            if b2 == b:
                lhs = c.compose(c.inclusions[(a, b)], c.inclusions[(b, d)])
                if lhs != c.inclusions[(a, d)]:
                    raise CategoryError(f"inclusions do not compose along {(a, b, d)}")


@pytest.mark.parametrize("name", ["full-transformation:2", "brandt-b2",
                                  "semilattice-chain:3"])
def test_order_checks_match_scan_on_mutations(name):
    # the grouped order loops of validate_category report what the pairwise
    # scan reports; every mutation of the order or of an inclusion fails
    failed = 0
    for side in (LEFT, RIGHT):
        c = build_ideal_category(semigroup(name), side)
        strict = sorted(p for p in c.leq if p[0] != p[1])
        inclusion = {key: j for key, j in c.inclusions.items() if key[0] != key[1]}
        mutated = [dataclasses.replace(c, leq=c.leq | {(b, a)}) for (a, b) in strict]
        mutated += [dataclasses.replace(c, leq=c.leq - {p}) for p in strict]
        mutated += [dataclasses.replace(c, inclusions={**c.inclusions, key: other})
                    for key, j in sorted(inclusion.items())
                    for other in c.hom(*key)[:2] if other != j]
        assert outcome(validate_category, c) is None
        for bad in mutated:
            want = outcome(subobject_scan, bad)
            if want is None:
                # the mono and left-division checks that follow are shared code
                continue
            assert outcome(validate_category, bad) == want
            failed += 1
    assert failed > 0


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
        assert enumerate_idempotent_cones(c) is c._idempotent_cones
        copy = dataclasses.replace(c)
        assert copy._outgoing is None and copy._cor == {} and copy._flags == {}
        assert copy._cf == {} and copy._object_of is None
        assert copy._idempotent_cones is None


# --- CC4 over the seeds of <c0> against the full walk ----------------------

def is_consistent_bimorphism_scan(c, m):
    """Reference: CC4 scanning a whole hom-set for the image of each g in
    <c0>, then functoriality over every composable pair of <c0>."""
    from concordia.categories import ConsistencyExtension, NotBimorphism
    from concordia.semigroups import NotAbundant
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
    for g1 in mor_c:
        for g2 in c.outgoing(c.cod[g1]):
            if g2 in t_mor and t_mor[c.compose(g1, g2)] != c.compose(t_mor[g1], t_mor[g2]):
                return False, None
    for (a, b), j in c.inclusions.items():
        if a in t_obj and b in t_obj and j in t_mor:
            if t_mor[j] != c.inclusions[(t_obj[a], t_obj[b])]:
                return False, None
    return True, ConsistencyExtension(t_obj, t_mor)


def verdict(check, *args):
    """check's result, or the type and message of what it raised."""
    try:
        return check(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_cc4_matches_scan(c):
    """Both CC4 routes agree at every bimorphism of c; returns how many
    bimorphisms were compared."""
    bimorphisms = [m for m in c.morphisms if morphism_flags(c, m).bimorphism]
    for m in bimorphisms:
        want = verdict(is_consistent_bimorphism_scan, dataclasses.replace(c), m)
        assert verdict(is_consistent_bimorphism, dataclasses.replace(c), m) == want, m
    return len(bimorphisms)


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_cc4_matches_scan_on_presets(name):
    for side in (LEFT, RIGHT):
        assert assert_cc4_matches_scan(build_ideal_category(semigroup(name), side)) > 0


def test_cc4_matches_scan_up_to_order_4():
    for table in concordant_classes(4):
        for c in both_sides(table):
            assert_cc4_matches_scan(c)


@pytest.mark.slow
def test_cc4_matches_scan_order_5():
    for table in concordant_classes(5):
        if len(table) == 5:
            for c in both_sides(table):
                assert_cc4_matches_scan(c)


def abstract(c):
    """c without its semigroup, so that a corrupted copy is judged by its
    rows alone (the starred cross-check of morphism_flags would reject it
    first)."""
    return dataclasses.replace(c, semigroup=None, side=None, object_idem=None,
                               triples=None, triple_index=None)


def swapped(c, x, y):
    """c with the morphisms x and y of one hom-set exchanged throughout its
    rows: an isomorphic table, so CC1 may still hold, while the identities
    and inclusions keep their ids.  x and y share their endpoints, so each
    row stays aligned: m1 m2 becomes f(f(m1) f(m2))."""
    def f(m):
        return {x: y, y: x}.get(m, m)
    return dataclasses.replace(c, rows=tuple(
        tuple(f(c.rows[f(m1)][c.pos[f(m2)]]) for m2 in c.outgoing(c.cod[m1]))
        for m1 in c.morphisms))


@pytest.mark.parametrize("name", ["full-transformation:2", "brandt-b2",
                                  "semilattice-chain:3"])
def test_cc4_matches_scan_on_corruptions(name):
    # CC4 assumes CC1.  Every one-entry corruption of these tables breaks
    # CC1, and on a flipped entry check_consistent_axioms then skips CC4
    # (wrong endpoints break CC2's compose already).  The
    # routes are compared on the exchanges of two morphisms that keep CC1.
    skipped = compared = 0
    for side in (LEFT, RIGHT):
        c = abstract(build_ideal_category(semigroup(name), side))
        for kind, bad in mutations(c):
            assert outcome(validate_category, dataclasses.replace(bad)) is not None
            if kind == "flip":
                rep = check_consistent_axioms(dataclasses.replace(bad))
                assert not rep.axioms["CC4"]
                assert rep.witnesses["CC4"] in ("skipped: CC1 failed",
                                                "skipped: CC3 failed")
                skipped += 1
        for hom in c.homs.values():
            for i, x in enumerate(hom):
                for y in hom[i + 1:]:
                    bad = swapped(c, x, y)
                    if outcome(validate_category, dataclasses.replace(bad)) is None:
                        compared += assert_cc4_matches_scan(bad)
    assert skipped > 0 and compared > 0


def test_cc4_matches_scan_on_a_category_that_fails_cc4():
    # abundant, not idempotent-connected (tests/test_semigroups.py): one
    # bimorphism per side is not consistent
    w = validate_table([[0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 1, 2, 3, 0],
                        [3, 3, 3, 3, 3], [0, 0, 0, 0, 4]])
    for side in (LEFT, RIGHT):
        c = build_ideal_category(w, side)
        verdicts = [is_consistent_bimorphism_scan(dataclasses.replace(c), m)[0]
                    for m in c.morphisms if morphism_flags(c, m).bimorphism]
        assert verdicts.count(False) == 1
        assert_cc4_matches_scan(c)


def test_cc4_skipped_when_cc1_fails():
    c = abstract(build_ideal_category(semigroup("full-transformation:2"), LEFT))
    for kind, bad in mutations(c):
        if kind != "flip":
            continue
        rep = check_consistent_axioms(bad)
        if not rep.axioms["CC1"] and rep.axioms["CC3"]:
            break
    else:
        raise AssertionError("no mutation fails CC1 alone")
    assert rep.witnesses["CC1"].startswith("associativity fails")
    assert not rep.axioms["CC4"]
    assert rep.witnesses["CC4"] == "skipped: CC1 failed"


def test_from_parts_refuses_a_short_row():
    # a row lists every composite, so a category lacking one cannot be
    # assembled: from_parts refuses each one-entry-short row of L(T2), and
    # the reader turns that into a ParseError
    from concordia import serialization as ser
    c = lcat("full-transformation:2")
    parts = [(c.dom[m], c.cod[m], c.is_inclusion(m)) for m in c.morphisms]
    leq = [p for p in c.leq if p[0] != p[1]]
    doc = ser.category_to_json(c)
    short = 0
    for m1, row in enumerate(c.rows):
        for i in range(len(row)):
            rows = list(c.rows)
            rows[m1] = row[:i] + row[i + 1:]
            with pytest.raises(CategoryError, match="rows"):
                from_parts(c.n_objects, leq, parts, rows)
            bad = {**doc, "compose": [list(r) for r in rows]}
            with pytest.raises(ser.ParseError, match="rows"):
                ser.category_from_json(bad)
            short += 1
    assert short == len(c.compose_table) == 36


def test_cc_report_when_an_entry_has_wrong_endpoints():
    # such an entry fails CC1 and NC1, and an axiom whose check composes it
    # with a morphism it does not meet fails with the MorphismNotInCategory
    # message instead of raising; the NC loops replaced by the CC checks
    # raised it on one of these
    c = abstract(lcat("full-transformation:2"))
    reached, raised = 0, []
    for kind, bad in mutations(c):
        if kind != "endpoints":
            continue
        rep = check_consistent_axioms(bad)
        assert rep.witnesses["CC1"].endswith("has wrong endpoints")
        assert all(rep.witnesses[name] for name, ok in rep.axioms.items() if not ok)
        assert len(rep.lines()) == 6
        reached += any("not composable" in w for w in rep.witnesses.values())
        nc = check_normal_axioms(dataclasses.replace(bad))
        assert nc.witnesses["NC1"].endswith("has wrong endpoints")
        assert len(nc.lines()) == 4
        try:
            want = check_normal_axioms_reference(dataclasses.replace(bad))
        except MorphismNotInCategory as exc:
            raised.append(str(exc))
            assert str(exc) in nc.witnesses.values()
        else:
            assert (nc.axioms, nc.witnesses) == (want.axioms, want.witnesses)
    assert reached > 0
    assert raised == ["morphisms 0 and 5 are not composable"]


def check_normal_axioms_reference(c):
    """Reference: the NC battery as written before NC1, NC2 and NC4 became
    the CC1, CC2 and CC6 checks, kept verbatim."""
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
    from concordia.cones import idempotent_cones_by_vertex
    cone_sets = idempotent_cones_by_vertex(c)
    for v in c.objects:
        if not cone_sets.get(v):
            nc4 = False
            witnesses["NC4"] = f"object {c.object_label(v)} has no idempotent normal cone"
            break
    axioms["NC4"] = nc4
    return AxiomReport(axioms, witnesses)


def nc_failures_match_reference(cats):
    """The NC report equals the replaced loops' on each category, each run
    on a fresh copy; returns how many reports fail."""
    failing = 0
    for c in cats:
        got = check_normal_axioms(dataclasses.replace(c))
        want = check_normal_axioms_reference(dataclasses.replace(c))
        assert got.lines() == want.lines() and got.witnesses == want.witnesses
        failing += not want.ok
    return failing


def test_nc_report_matches_reference():
    # on L and R of every concordant class of order <= 4, on the normal
    # subcategory of each preset and of the non-regular witness
    cats = [c for table in concordant_classes(4) for c in both_sides(table)]
    for s in [semigroup(name) for name in SMALL_PRESETS] + [
            validate_table([list(r) for r in NONREGULAR_CONCORDANT])]:
        cats += [normal_subcategory(build_ideal_category(s, side)) for side in (LEFT, RIGHT)]
    assert len(cats) == 2 * 86 + 2 * 8
    assert nc_failures_match_reference(cats) > 0


@pytest.mark.slow
def test_nc_report_matches_reference_order_5():
    tables = [t for t in concordant_classes(5) if len(t) == 5]
    assert nc_failures_match_reference(c for t in tables for c in both_sides(t)) > 0


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_compose_refuses_every_non_composable_pair(name):
    # rows index m2 by its place among the morphisms out of dom m2, so
    # without the endpoint check a non-composable pair would read some
    # other morphism's composite
    for side in (LEFT, RIGHT):
        c = build_ideal_category(semigroup(name), side)
        refused = 0
        for m1 in c.morphisms:
            for m2 in c.morphisms:
                if c.cod[m1] != c.dom[m2]:
                    with pytest.raises(MorphismNotInCategory, match="not composable"):
                        c.compose(m1, m2)
                    refused += 1
        assert refused == c.n_morphisms ** 2 - len(c.compose_table)
        # ids outside the category are refused too, not read from the end
        for m1, m2 in ((-1, 0), (0, -1), (c.n_morphisms, 0), (0, c.n_morphisms)):
            with pytest.raises(MorphismNotInCategory):
                c.compose(m1, m2)


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_rows_survive_the_reader_and_writer(name):
    from concordia import serialization as ser
    for side in (LEFT, RIGHT):
        c = build_ideal_category(semigroup(name), side)
        back = ser.category_from_json(ser.category_to_json(abstract(c)))
        assert back.rows == c.rows


def stirling2(n, k):
    """The number of partitions of an n-set into k blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def full_transformation_closed_forms(n):
    """((objects, morphisms) of L(T_n), of R(T_n)): L(T_n) has the partitions
    of n as objects, with |hom(p, q)| = |p|^|q| in blocks; R(T_n) has the
    non-empty subsets, with |hom(A, B)| = |B|^|A|."""
    blocks = [(k, stirling2(n, k)) for k in range(1, n + 1)]
    sizes = [(k, math.comb(n, k)) for k in range(1, n + 1)]
    left = (sum(c for _, c in blocks),
            sum(cp * cq * p ** q for p, cp in blocks for q, cq in blocks))
    right = (sum(c for _, c in sizes),
             sum(ca * cb * b ** a for a, ca in sizes for b, cb in sizes))
    return left, right


def assert_full_transformation_counts(n, left, right):
    s = presets.preset(f"full-transformation:{n}")
    for side, counts in ((LEFT, left), (RIGHT, right)):
        c = build_ideal_category(s, side)
        assert (c.n_objects, c.n_morphisms) == counts, side
    assert full_transformation_closed_forms(n) == (left, right)


@pytest.mark.parametrize("n, left, right", [(2, (2, 8), (3, 14)),
                                            (3, (5, 128), (7, 162))])
def test_full_transformation_closed_forms(n, left, right):
    assert_full_transformation_counts(n, left, right)


@pytest.mark.slow
def test_full_transformation_closed_forms_t4():
    # Bell(4) = 15 partitions and 2^4 - 1 = 15 non-empty subsets
    assert_full_transformation_counts(4, (15, 3283), (15, 2184))


# --- one home per derived fact -----------------------------------------------

@pytest.mark.parametrize("mode", [PRINCIPAL_ONLY, EPSILON_STAR_U])
def test_each_morphism_is_factored_once(mode, monkeypatch):
    # consistent_factorisation memoises its result, so building Omega-S and
    # checking CC1-CC6 on both sides runs the semigroup route once per
    # (category, morphism); the calls hold their category, so ids stay unique
    from concordia.crossconn import build_omega_s
    calls = []
    route = categories._semigroup_consistent_parts

    def counted(c, m):
        calls.append((c, m))
        return route(c, m)

    monkeypatch.setattr(categories, "_semigroup_consistent_parts", counted)
    sources = [presets.preset(name) for name in SMALL_PRESETS]
    for s in sources + [validate_table(NONREGULAR_CONCORDANT)]:
        omega = build_omega_s(s, mode)
        assert check_consistent_axioms(omega.C).ok and check_consistent_axioms(omega.D).ok
    twice = [key for key, n in Counter((id(c), m) for c, m in calls).items() if n > 1]
    assert len(calls) > 0
    assert twice == []


def object_of_class_scan(c, x):
    """Reference: the first object whose idempotent is L-related to x."""
    l = green_classes(c.semigroup).l
    for a in c.objects:
        if l.partition[c.object_idem[a]] == l.partition[x]:
            return a
    return None


def starred_witness_scan(s, side, u):
    """Reference: the least idempotent in the R*-class (side RIGHT) or the
    L*-class (side LEFT) of u, or None."""
    es = set(idempotents(s))
    wits = [g for g in starred_relation(s, side).class_of(u) if g in es]
    return min(wits) if wits else None


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_object_map_and_witnesses_match_scans(name):
    s = presets.preset(name)
    for side in (LEFT, RIGHT):
        c = build_ideal_category(s, side)
        base = c.semigroup
        ab = is_abundant(base)
        scan = [object_of_class_scan(c, x) for x in base.elements]
        for x in base.elements:
            assert c.object_of[x] == scan[x]
            if scan[x] is None:
                with pytest.raises(MorphismNotInCategory):
                    object_of_idempotent(c, x)
            else:
                assert object_of_idempotent(c, x) == scan[x]
            assert ab.dagger[x] == starred_witness_scan(base, RIGHT, x)
            assert ab.star[x] == starred_witness_scan(base, LEFT, x)
        found = 0
        for e in base.elements:
            for u in base.elements:
                for f in base.elements:
                    a, b = scan[e], scan[f]
                    want = None if a is None or b is None else c.triple_index.get(
                        (a, b, base.mul(c.object_idem[a], u)))
                    assert locate_triple(c, e, u, f) == want
                    found += want is not None
        assert found >= c.n_morphisms
