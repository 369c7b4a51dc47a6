"""Acceptance battery: one test per criterion, each printing a pass/fail line.

All tolerances are exact (set/table equality, exit codes, time budgets as
stated).  Criterion 3's B2 clause is implemented faithfully and fails
honestly: the equality it asserts is provably false for B2 (two extra
idempotent consistent cones exist because the object poset of L(B2) has two
maximal objects); the other four presets pass, and a companion test checks
the true statement for all five.
"""
import json
import time
from pathlib import Path

import pytest

from concordia import presets, serialization as ser
from concordia.categories import build_ideal_category, check_consistent_axioms
from concordia.cli import main as cli_main
from concordia.cones import (
    EPSILON_STAR_U,
    FULL_ENUMERATION,
    PRINCIPAL_ONLY,
    build_cone_semigroup,
    concordance_of_cone_semigroup,
    principal_cone,
)
from concordia.crossconn import NotConcordant, build_omega_s, build_s_omega, \
    apply_cc_morphism, cc_morphism_from_good_hom, phi_roundtrip
from concordia.icc import build_icc, check_icc_axioms
from concordia.search import SearchSpec, canonical_form, enumerate_tables, run_search
from concordia.semigroups import (
    LEFT,
    RIGHT,
    EqRelation,
    FiniteSemigroup,
    SemigroupMap,
    adjoin_identity,
    biorder,
    green_classes,
    idempotents,
    is_abundant,
    is_concordant,
    is_regular,
    is_weakly_reductive,
    starred_relation,
    validate_table,
)
from concordia.categories import object_of_idempotent
from conftest import omega_bundle, semigroup

ROUNDTRIP_PRESETS = ("cyclic:2", "cyclic:3", "semilattice-chain:2",
                     "semilattice-chain:3", "left-zero:2",
                     "full-transformation:2", "brandt-b2",
                     "full-transformation:3")
ORDER_LE_5_PRESETS = ("cyclic:2", "cyclic:3", "semilattice-chain:2",
                      "semilattice-chain:3", "left-zero:2",
                      "full-transformation:2", "brandt-b2")
ORACLE_PRESETS = ("semilattice-chain:2", "cyclic:3", "left-zero:2",
                  "full-transformation:2", "brandt-b2")


def report(criterion, passed, detail=""):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}" +
          (f" -- {detail}" if detail else ""))
    assert passed, f"{criterion}: {detail}"


# --- criterion 1: round-trip isomorphism --------------------------------

@pytest.mark.parametrize("name", ROUNDTRIP_PRESETS)
def test_criterion_1_roundtrip(name, tmp_path):
    s = presets.preset(name)
    start = time.monotonic()
    code = cli_main(["roundtrip", "--preset", name, "--out", str(tmp_path)])
    elapsed = time.monotonic() - start
    somega = json.loads((tmp_path / "somega.json").read_text())
    ok = code == 0 and somega["semigroup"]["order"] == s.order
    detail = f"exit {code}, |S-Omega| = {somega['semigroup']['order']} = |S|, {elapsed:.1f}s"
    if name == "full-transformation:3":
        ok = ok and elapsed < 120
        detail += " (budget 120s)"
    report(f"criterion 1 roundtrip {name}", ok, detail)


# --- criterion 2: cone-semigroup concordance ----------------------------

@pytest.mark.parametrize("name", ORDER_LE_5_PRESETS)
def test_criterion_2_cone_semigroup_concordant(name):
    c = build_ideal_category(presets.preset(name), LEFT)
    cs = build_cone_semigroup(c, EPSILON_STAR_U)
    cc = concordance_of_cone_semigroup(cs)
    report(f"criterion 2 C-hat concordant {name}",
           cc.report.concordant and cc.lemma_ab_ok,
           f"|C-hat| = {cs.order}")


# --- criterion 3: oracle equivalence of cone modes ----------------------

@pytest.mark.parametrize("name", ORACLE_PRESETS)
def test_criterion_3_cone_mode_equality(name):
    s = presets.preset(name)
    c = build_ideal_category(s, LEFT)
    full = set(build_cone_semigroup(c, FULL_ENUMERATION).cones)
    epsu = set(build_cone_semigroup(c, EPSILON_STAR_U).cones)
    prin = set(build_cone_semigroup(c, PRINCIPAL_ONLY).cones)
    ok = full == epsu == prin
    detail = f"|full| = {len(full)}, |epsU| = {len(epsu)}, |principal| = {len(prin)}"
    if not ok:
        detail += ("; this equality is provably false for this input: the two "
                   "extra cones are genuine idempotent consistent cones (the "
                   "object poset has two maximal objects, so nothing ties the "
                   "two maximal components together); the companion test "
                   "verifies the true statement, that the linked-pair pool "
                   "equals the principal cones")
    report(f"criterion 3 cone modes {name}", ok, detail)


@pytest.mark.parametrize("name", ORACLE_PRESETS)
def test_criterion_3_companion_gamma_hat_is_principal(name):
    # the true statement: the union of the bifunctor
    # values equals the principal cones, for all five presets including B2
    s, omega, somega = omega_bundle(name)
    gamma_hat = {omega.cs_c.cones[g] for (g, d) in somega.pairs}
    c = build_ideal_category(s, LEFT)
    principal = {principal_cone(c, a) for a in s.elements}
    report(f"criterion 3 companion Gamma-hat principal {name}",
           gamma_hat == principal,
           f"|Gamma-hat| = {len(gamma_hat)}")


# --- criterion 4: axiom suites ------------------------------------------

@pytest.mark.parametrize("name", ROUNDTRIP_PRESETS)
def test_criterion_4_cc_axioms(name):
    s = presets.preset(name)
    left = check_consistent_axioms(build_ideal_category(s, LEFT))
    right = check_consistent_axioms(build_ideal_category(s, RIGHT))
    report(f"criterion 4 CC1-CC6 L(S) and R(S) {name}",
           left.ok and right.ok,
           "; ".join(left.lines() + right.lines()) if not (left.ok and right.ok) else "")


def test_criterion_4_monogenic_fails_with_witness():
    # the non-abundant order-3 monogenic input fails the pipeline gate with
    # a concrete witness (the idempotent-free L*-class {a})
    s = presets.monogenic(2, 2)
    with pytest.raises(NotConcordant) as exc:
        build_omega_s(s)
    witness_elements = exc.value.report.abundance.failing()
    ok = witness_elements == (0,) and not exc.value.report.abundant
    report("criterion 4 monogenic(2,2) fails with witness", ok,
           f"witness elements {[s.name(a) for a in witness_elements]}")


@pytest.mark.parametrize("name", ROUNDTRIP_PRESETS)
def test_criterion_4_icc_axioms(name):
    s, omega, somega = omega_bundle(name)
    icc = build_icc(omega, somega)
    rep = check_icc_axioms(icc)
    report(f"criterion 4 OCC/ICC axioms {name}", rep.ok,
           "" if rep.ok else "; ".join(rep.lines()))


# --- criterion 5: biorder transport -------------------------------------

@pytest.mark.parametrize("name", ROUNDTRIP_PRESETS)
def test_criterion_5_biorder_transport(name):
    s, omega, somega = omega_bundle(name)
    bo_s = biorder(s)
    bo_o = biorder(somega.semigroup)
    pair_of = {}
    for e in idempotents(s):
        cd = (object_of_idempotent(omega.C, e), object_of_idempotent(omega.D, e))
        pair_of[e] = somega.idempotent_pairs[cd]
    ok = len(set(pair_of.values())) == len(pair_of)
    for e in idempotents(s):
        for f in idempotents(s):
            ok = ok and (((e, f) in bo_s.omega_l)
                         == ((pair_of[e], pair_of[f]) in bo_o.omega_l))
            ok = ok and (((e, f) in bo_s.omega_r)
                         == ((pair_of[e], pair_of[f]) in bo_o.omega_r))
    report(f"criterion 5 biorder transport {name}", ok,
           f"|E| = {len(idempotents(s))}")


# --- criterion 6: starred-relation correctness --------------------------

def _literal_starred(s, side):
    s1 = adjoin_identity(s)
    n1 = s1.order

    def related(a, b):
        for x in range(n1):
            for y in range(n1):
                if side == LEFT:
                    if (s1.mul(a, x) == s1.mul(a, y)) != (s1.mul(b, x) == s1.mul(b, y)):
                        return False
                else:
                    if (s1.mul(x, a) == s1.mul(y, a)) != (s1.mul(x, b) == s1.mul(y, b)):
                        return False
        return True

    return EqRelation(tuple(min(b for b in range(a + 1) if related(a, b))
                            for a in range(s.order)))


def test_criterion_6_starred_exhaustive_order_3():
    checked = regular_checked = 0
    for n in (1, 2, 3):
        for table in enumerate_tables(n):
            s = FiniteSemigroup(table)
            for side in (LEFT, RIGHT):
                assert starred_relation(s, side) == _literal_starred(s, side)
            checked += 1
            if is_regular(s):
                g = green_classes(s)
                assert starred_relation(s, LEFT) == g.l
                assert starred_relation(s, RIGHT) == g.r
                regular_checked += 1
    report("criterion 6 starred correctness (exhaustive, order <= 3)",
           checked == 1 + 8 + 113,
           f"{checked} semigroups, {regular_checked} regular with L* = L")


# --- criterion 7: negative battery --------------------------------------

def test_criterion_7_negative_battery():
    ut = presets.upper_triangular_f2()
    rep = is_concordant(ut)
    n = rep.esub.non_regular_witness
    e = ut.names.index("[[1,1],[0,0]]")
    f = ut.names.index("[[0,0],[0,1]]")
    ok = (rep.abundant and not rep.idempotents_regular
          and ut.name(n) == "[[0,1],[0,0]]" and ut.mul(e, f) == n)
    ok = ok and not is_weakly_reductive(presets.null(2))
    # Prop 6.4 instance check across the entire order-<=4 census (canonical
    # representatives; both properties are isomorphism-invariant)
    census_size = 0
    for n_ord in (1, 2, 3, 4):
        for table in enumerate_tables(n_ord):
            if canonical_form(table) != table:
                continue
            census_size += 1
            s = FiniteSemigroup(table)
            if is_abundant(s).abundant:
                ok = ok and is_weakly_reductive(s)
    report("criterion 7 negative battery", ok,
           f"UT(2,2) nilpotent witness = e*f, null-2 not weakly reductive, "
           f"abundant => weakly reductive over {census_size} canonical tables")


# --- criterion 8: good-homomorphism transport ---------------------------

def test_criterion_8_good_hom_transport():
    cases = []
    # identity on SL2
    sl2, om2, so2 = omega_bundle("semilattice-chain:2")
    cases.append((sl2, sl2, tuple(sl2.elements), (om2, so2), (om2, so2)))
    # Z3 collapse
    z3, om1, so1 = omega_bundle("cyclic:3")
    triv = validate_table([[0]])
    omt = build_omega_s(triv)
    sot = build_s_omega(omt)
    cases.append((z3, triv, (0, 0, 0), (om1, so1), (omt, sot)))
    # SL2 x Z3 projection
    prod = presets.preset("direct-product:semilattice-chain:2*cyclic:3")
    omp = build_omega_s(prod)
    sop = build_s_omega(omp)
    cases.append((prod, sl2, tuple(i // 3 for i in range(6)), (omp, sop), (om2, so2)))

    ok = True
    for s, t, image, (om_s, so_s), (om_t, so_t) in cases:
        h = SemigroupMap(s, t, image)
        ccm = cc_morphism_from_good_hom(h, om_s, om_t)
        sm = apply_cc_morphism(ccm, so_s, so_t)
        _, _, cs = phi_roundtrip(s, omega=om_s, somega=so_s)
        _, _, ct = phi_roundtrip(t, omega=om_t, somega=so_t)
        ok = ok and all(sm.image[cs.mapping[a]] == ct.mapping[h(a)]
                        for a in s.elements)
    report("criterion 8 S(Omega-h) agrees with h under phi", ok,
           "identity, Z3-collapse, SL2xZ3-projection")


# --- criterion 9: census determinism ------------------------------------

def test_criterion_9_census(tmp_path, capsys):
    code1 = cli_main(["search", "--max-order", "3", "--out",
                      str(tmp_path / "a.json")])
    code2 = cli_main(["search", "--max-order", "3", "--out",
                      str(tmp_path / "b.json")])
    identical = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    start = time.monotonic()
    census = run_search(SearchSpec(4, ("concordant", "!regular")))
    elapsed = time.monotonic() - start
    counts = {n: census["orders"][n]["matching"] for n in ("1", "2", "3", "4")}
    exists = census["total_matching"] > 0
    # verify the witnesses independently rather than presuming the outcome
    verified = all(
        is_concordant(validate_table(w)).concordant
        and not is_regular(validate_table(w))
        for n in ("1", "2", "3", "4")
        for w in census["orders"][n]["witnesses"])
    # pin the recorded outcome: exactly one canonical witness, at order 4
    recorded = counts == {"1": 0, "2": 0, "3": 0, "4": 1}
    ok = (code1 == 0 and code2 == 0 and identical and census["complete"]
          and verified and recorded and elapsed < 1800)
    report("criterion 9 census determinism and recorded outcome", ok,
           f"byte-identical reruns; concordant & !regular of order <= 4: "
           f"{'EXISTS' if exists else 'none'} (counts {counts}), "
           f"order-4 search {elapsed:.1f}s < 1800s")
