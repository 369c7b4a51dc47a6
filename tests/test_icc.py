import dataclasses

import pytest

from concordia import presets
from concordia.categories import build_ideal_category, morphism_flags
from concordia.crossconn import build_omega_s, build_s_omega, cc_morphism_from_good_hom
from concordia.icc import (
    InductiveCategory,
    _singular_squares,
    build_icc,
    check_icc_axioms,
    inductive_functor,
)
from concordia.semigroups import LEFT, SemigroupMap, idempotents, validate_table
from conftest import SMALL_PRESETS, NONREGULAR_CONCORDANT, omega_bundle, semigroup

import functools


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
