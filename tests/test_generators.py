"""Generating sets of categories and the certificates checked over them.

The H-functor functoriality, the naturality squares, the functoriality and
the subfunctor order of the dual are checked over generators only (Light's
test); the unique idempotent cone is looked up in an index.  The full walks
they replace are kept here as references, and both must give the same
verdict, with the same exception, on real data and on corrupted copies."""
import dataclasses

import pytest

from concordia.categories import AxiomFailure, build_ideal_category, morphism_flags
from concordia.cones import (
    EPSILON_STAR_U,
    PRINCIPAL_ONLY,
    _check_functorial,
    build_cone_semigroup,
    cone_star,
    h_functor,
)
from concordia.crossconn import (
    MultipleSolutions,
    NaturalityFailure,
    PairNotInEOmega,
    _check_dual_functorial,
    _check_naturality,
    _check_subfunctor_order,
    _unique_idempotent_cone,
    build_dual,
)
from concordia.semigroups import LEFT, RIGHT, validate_table
from conftest import SMALL_PRESETS, concordant_classes, semigroup

MODES = (PRINCIPAL_ONLY, EPSILON_STAR_U)


# --- references: the full walks -------------------------------------------

def functorial_scan(c, maps):
    """H-functor functoriality over every composable pair."""
    for g1 in c.morphisms:
        map1 = maps[g1]
        for g2 in c.outgoing(c.cod[g1]):
            map2 = maps[g2]
            if {gid: map2[x] for gid, x in map1.items()} != maps[c.compose(g1, g2)]:
                raise AxiomFailure("H-functor is not functorial")


def naturality_scan(c, base, hs, nat):
    """Every naturality square, at every morphism of the category."""
    for m in base.morphisms:
        maps1, maps2, nat_m = hs[base.dom[m]].maps, hs[base.cod[m]].maps, nat[m]
        for g in c.morphisms:
            map1, map2, after = maps1[g], maps2[g], nat_m[c.cod[g]]
            for gid, x in nat_m[c.dom[g]].items():
                if map2[x] != after[map1[gid]]:
                    raise NaturalityFailure(f"square fails for dual morphism {m} at {g}")


def dual_functorial_scan(base, nat):
    """Functoriality of the dual realisation over every composable pair."""
    for m1 in base.morphisms:
        for m2 in base.outgoing(base.cod[m1]):
            composite = tuple({gid: step2[x] for gid, x in step1.items()}
                              for step1, step2 in zip(nat[m1], nat[m2]))
            if composite != nat[base.compose(m1, m2)]:
                raise AxiomFailure("dual realisation is not functorial")


def subfunctor_order_scan(c, base, hs):
    """The subfunctor order, comparing maps at every morphism."""
    for o1 in base.objects:
        for o2 in base.objects:
            pointwise = all(hs[o1].values[obj] <= hs[o2].values[obj]
                            for obj in c.objects)
            if pointwise:
                pointwise = all(hs[o1].maps[g][gid] == hs[o2].maps[g][gid]
                                for g in c.morphisms for gid in hs[o1].values[c.dom[g]])
            if pointwise != ((o1, o2) in base.leq):
                raise AxiomFailure(
                    f"subfunctor order disagrees with ideal order on {(o1, o2)}")


def unique_idempotent_cone_scan(dual, obj, vertex):
    """The unique idempotent cone, checked by comparing H-functor values with
    every idempotent cone at the vertex."""
    cs = dual.cone_semigroup
    c = cs.category
    eps = cs.cones[dual.base.object_idem[obj]]
    flags = morphism_flags(c, eps.components[vertex])
    if not flags.isomorphism:
        raise PairNotInEOmega(f"component at object {vertex} is not an isomorphism")
    xi_id = cs.index[cone_star(c, eps, flags.inverse)]
    matches = [i for i in cs.idempotent_ids()
               if cs.cones[i].vertex == vertex
               and h_functor(cs, i).values == dual.h[obj].values]
    if matches != [xi_id]:
        raise MultipleSolutions(f"idempotent cone at vertex {vertex} not unique: {matches}")
    return xi_id


def outcome(check, *args):
    """The result, or the exception's type and message."""
    try:
        return check(*args)
    except Exception as exc:
        return type(exc), str(exc)


def closure(c, gens):
    """Everything composed from gens, by a plain fixed point."""
    closed = set(gens)
    while True:
        more = {c.compose(x, y) for x in closed for y in c.outgoing(c.cod[x])
                if y in closed} - closed
        if not more:
            return closed
        closed |= more


# --- the sweep ---------------------------------------------------------------

def duals(s, mode):
    """The dual of each side's cone semigroup; build_dual runs the fast
    checks, so a failing one raises here."""
    return [build_dual(build_cone_semigroup(build_ideal_category(s, side), mode))
            for side in (LEFT, RIGHT)]


def assert_generators(c):
    gens = c.generators()
    assert gens == tuple(sorted(set(gens)))
    assert set(c.identities) <= set(gens)
    assert closure(c, gens) == set(c.morphisms)
    assert c.generators() is gens
    assert dataclasses.replace(c)._generators is None


def assert_fast_matches_reference(dual):
    c, base, hs, nat = dual.cone_semigroup.category, dual.base, dual.h, dual.nat
    cs = dual.cone_semigroup
    for cat in (c, base):
        assert_generators(cat)
    for i in cs.idempotent_ids():
        maps = h_functor(cs, i).maps
        assert outcome(functorial_scan, c, maps) is None
        assert outcome(_check_functorial, c, maps) is None
    for fast, ref, args in ((_check_naturality, naturality_scan, (c, base, hs, nat)),
                            (_check_dual_functorial, dual_functorial_scan, (base, nat)),
                            (_check_subfunctor_order, subfunctor_order_scan, (c, base, hs))):
        assert outcome(ref, *args) is None
        assert outcome(fast, *args) is None
    for obj in base.objects:
        for vertex in c.objects:
            want = outcome(unique_idempotent_cone_scan, dual, obj, vertex)
            assert outcome(_unique_idempotent_cone, dual, obj, vertex) == want


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_fast_checks_match_reference_presets(name, mode):
    for dual in duals(semigroup(name), mode):
        assert_fast_matches_reference(dual)


@pytest.mark.parametrize("mode", MODES)
def test_fast_checks_match_reference_up_to_order_4(mode):
    for table in concordant_classes(4):
        for dual in duals(validate_table(table), mode):
            assert_fast_matches_reference(dual)


@pytest.mark.slow
@pytest.mark.parametrize("mode", MODES)
def test_fast_checks_match_reference_order_5(mode):
    for table in concordant_classes(5):
        if len(table) == 5:
            for dual in duals(validate_table(table), mode):
                assert_fast_matches_reference(dual)


def test_generators_of_a_large_category():
    c = build_ideal_category(
        semigroup("direct-product:full-transformation:3*semilattice-chain:2"), LEFT)
    assert (len(c.generators()), c.n_morphisms) == (91, 640)
    assert_generators(c)


# --- corrupted data: one entry changed at a time ----------------------------

def other_value(values, x):
    """Another element of values than x, or None."""
    return next((y for y in sorted(values) if y != x), None)


def corrupted_maps(c, h):
    """h.maps with one entry moved to another value at the codomain, once per
    morphism where that is possible."""
    for g in c.morphisms:
        for gid, x in sorted(h.maps[g].items()):
            y = other_value(h.values[c.cod[g]], x)
            if y is not None:
                yield {**h.maps, g: {**h.maps[g], gid: y}}
                break


def corrupted_nats(c, base, hs, nat):
    """nat with one component entry moved, once per dual morphism and object
    where that is possible."""
    for m in base.morphisms:
        for obj in c.objects:
            step = nat[m][obj]
            for gid, x in sorted(step.items()):
                y = other_value(hs[base.cod[m]].values[obj], x)
                if y is not None:
                    comps = list(nat[m])
                    comps[obj] = {**step, gid: y}
                    yield {**nat, m: tuple(comps)}
                    break


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["full-transformation:2", "brandt-b2",
                                  "semilattice-chain:3"])
def test_fast_checks_match_reference_on_corruptions(name, mode):
    failures = {}

    def compare(fast, ref, *args):
        want = outcome(ref, *args)
        assert outcome(fast, *args) == want
        if isinstance(want, tuple):  # an exception, not a verdict or a cone id
            failures[fast.__name__] = failures.get(fast.__name__, 0) + 1

    for dual in duals(semigroup(name), mode):
        c, base, hs, nat = dual.cone_semigroup.category, dual.base, dual.h, dual.nat
        cs = dual.cone_semigroup
        for i in cs.idempotent_ids():
            for maps in corrupted_maps(c, h_functor(cs, i)):
                compare(_check_functorial, functorial_scan, c, maps)
        for bad in corrupted_nats(c, base, hs, nat):
            compare(_check_naturality, naturality_scan, c, base, hs, bad)
            compare(_check_dual_functorial, dual_functorial_scan, base, bad)
        for pair in sorted((o1, o2) for o1 in base.objects for o2 in base.objects):
            bad = dataclasses.replace(base, leq=base.leq ^ {pair})
            compare(_check_subfunctor_order, subfunctor_order_scan, c, bad, hs)
        # each object given another object's H-functor
        for obj in base.objects:
            for other in base.objects:
                h = list(dual.h)
                h[obj] = dual.h[other]
                bad = dataclasses.replace(dual, h=tuple(h))
                for vertex in c.objects:
                    compare(_unique_idempotent_cone, unique_idempotent_cone_scan,
                            bad, obj, vertex)
    assert set(failures) == {"_check_functorial", "_check_naturality",
                             "_check_dual_functorial", "_check_subfunctor_order",
                             "_unique_idempotent_cone"}
