import dataclasses
import gc
import weakref

import pytest

from concordia import presets
from concordia.semigroups import (
    LEFT,
    RIGHT,
    AssociativityViolation,
    ClosureViolation,
    EqRelation,
    FiniteSemigroup,
    NotHomomorphism,
    SemigroupMap,
    adjoin_identity,
    biorder,
    direct_product,
    green_classes,
    ic_check,
    idempotent_generated,
    idempotents,
    is_abundant,
    is_concordant,
    is_good_homomorphism,
    is_regular,
    is_weakly_reductive,
    starred_relation,
    validate_table,
    _bipartite_matching,
)
from conftest import SMALL_PRESETS, NONREGULAR_CONCORDANT, semigroup


def literal_starred_oracle(s, side):
    """Adjoin S^1 and compare full kernel partitions element-by-element;
    independent of the signature-based implementation."""
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

    part = []
    for a in range(s.order):
        part.append(min(b for b in range(a + 1) if related(a, b)))
    return EqRelation(tuple(part))


def test_validate_trivial():
    s = validate_table([[0]])
    assert s.order == 1 and idempotents(s) == (0,)


def test_validate_sl2():
    s = validate_table([[0, 0], [0, 1]])
    assert idempotents(s) == (0, 1)


def test_validate_closure_violation():
    with pytest.raises(ClosureViolation) as exc:
        validate_table([[0, 1], [1, 2]])
    assert exc.value.row == 1 and exc.value.col == 1


def test_validate_associativity_violation():
    # left-cancellative non-associative magma
    with pytest.raises(AssociativityViolation):
        validate_table([[1, 0], [0, 0]])


def test_validate_rejects_non_square():
    from concordia.semigroups import SemigroupError
    with pytest.raises(SemigroupError):
        validate_table([[0, 0]])


def test_validate_large_table_lights_test():
    # Light's test over a generating set, on a table of order 80
    big = direct_product(direct_product(semigroup("full-transformation:2"),
                                        semigroup("full-transformation:2")),
                         semigroup("brandt-b2"))
    assert big.order == 80
    validate_table([list(r) for r in big.table])
    corrupted = [list(r) for r in big.table]
    corrupted[17][3] = (corrupted[17][3] + 1) % 80
    with pytest.raises(AssociativityViolation):
        validate_table(corrupted)
    # the witness is the full scan's: the first failing triple
    assert validation_outcome(validate_table, corrupted) \
        == validation_outcome(validate_table_scan, corrupted)


def validate_table_scan(raw):
    """Reference: closure, then associativity over every triple in order."""
    n = len(raw)
    for i, row in enumerate(raw):
        for j, v in enumerate(row):
            if not 0 <= v < n:
                raise ClosureViolation(i, j, v)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if raw[raw[i][j]][k] != raw[i][raw[j][k]]:
                    raise AssociativityViolation(i, j, k)


def validation_outcome(check, raw):
    try:
        check(raw)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_validate_table_matches_scan_on_corruptions_up_to_order_3():
    from concordia.search import enumerate_tables
    failures = 0
    for n in (1, 2, 3):
        for table in enumerate_tables(n, canonical=True):
            assert validation_outcome(validate_table, table) is None
            for i in range(n):
                for j in range(n):
                    for v in range(-1, n + 1):
                        if v == table[i][j]:
                            continue
                        bad = [list(r) for r in table]
                        bad[i][j] = v
                        want = validation_outcome(validate_table_scan, bad)
                        assert validation_outcome(validate_table, bad) == want, bad
                        failures += want is not None
    assert failures > 0


def test_starred_oracle_exhaustive_order_4_canonical():
    # agreement of the signature implementation with the literal oracle over
    # the order-4 census (canonical representatives; the property is
    # isomorphism-invariant); orders <= 3 run unreduced in the acceptance suite
    from concordia.search import canonical_form, enumerate_tables
    count = 0
    for table in enumerate_tables(4):
        if canonical_form(table) != table:
            continue
        count += 1
        s = FiniteSemigroup(table)
        for side in (LEFT, RIGHT):
            assert starred_relation(s, side) == literal_starred_oracle(s, side)
    assert count > 100


def test_adjoin_identity_monoid_untouched():
    z3 = semigroup("cyclic:3")
    s1 = adjoin_identity(z3)
    assert s1.order == 3 and not s1.has_adjoined_identity and s1.table == z3.table
    lz2 = semigroup("left-zero:2")
    s1 = adjoin_identity(lz2)
    assert s1.order == 3 and s1.has_adjoined_identity
    assert all(s1.mul(2, x) == x == s1.mul(x, 2) for x in range(3))


def test_starred_z3_single_class():
    z3 = semigroup("cyclic:3")
    assert starred_relation(z3, LEFT).classes() == ((0, 1, 2),)
    assert starred_relation(z3, RIGHT).classes() == ((0, 1, 2),)


def test_starred_monogenic():
    m = presets.monogenic(2, 2)
    # elements a, a^2, a^3; kernel partitions computed by the oracle
    assert starred_relation(m, LEFT).classes() == ((0,), (1, 2))
    assert starred_relation(m, LEFT) == literal_starred_oracle(m, LEFT)


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_starred_equals_green_on_regular(name):
    s = semigroup(name)
    assert is_regular(s)
    g = green_classes(s)
    assert starred_relation(s, LEFT) == g.l
    assert starred_relation(s, RIGHT) == g.r


@pytest.mark.parametrize("name", SMALL_PRESETS + ("monogenic:2,2", "upper-triangular-f2"))
def test_starred_matches_literal_oracle(name):
    s = presets.preset(name)
    for side in (LEFT, RIGHT):
        assert starred_relation(s, side) == literal_starred_oracle(s, side)


@pytest.mark.parametrize("name", SMALL_PRESETS + ("monogenic:2,2", "upper-triangular-f2"))
def test_starred_coarser_than_green(name):
    s = presets.preset(name)
    g = green_classes(s)
    assert g.l.refines(starred_relation(s, LEFT))
    assert g.r.refines(starred_relation(s, RIGHT))


@pytest.mark.parametrize("name", SMALL_PRESETS + ("monogenic:2,2", "upper-triangular-f2"))
def test_starred_congruence_properties(name):
    # L* is a right congruence, R* a left congruence
    s = presets.preset(name)
    lstar = starred_relation(s, LEFT)
    rstar = starred_relation(s, RIGHT)
    for a in s.elements:
        for b in s.elements:
            for c in s.elements:
                if lstar.same(a, b):
                    assert lstar.same(s.mul(a, c), s.mul(b, c))
                if rstar.same(a, b):
                    assert rstar.same(s.mul(c, a), s.mul(c, b))


@pytest.mark.parametrize("name", SMALL_PRESETS + ("monogenic:2,2", "upper-triangular-f2"))
def test_idempotent_acts_as_right_identity_in_lstar_class(name):
    s = presets.preset(name)
    lstar = starred_relation(s, LEFT)
    for e in idempotents(s):
        for a in lstar.class_of(e):
            assert s.mul(a, e) == a


def test_green_left_zero():
    lz2 = semigroup("left-zero:2")
    g = green_classes(lz2)
    assert g.l.classes() == ((0, 1),)
    assert g.r.classes() == ((0,), (1,))
    assert g.d.classes() == ((0, 1),)


def test_green_sl2():
    g = green_classes(semigroup("semilattice-chain:2"))
    assert g.l.classes() == ((0,), (1,))
    assert g.l == g.r == g.h == g.d


def test_green_trivial():
    g = green_classes(validate_table([[0]]))
    assert g.l.classes() == ((0,),)


def test_abundance_z3():
    ab = is_abundant(semigroup("cyclic:3"))
    assert ab.abundant
    assert ab.dagger == (0, 0, 0) and ab.star == (0, 0, 0)


def test_abundance_monogenic_fails():
    ab = is_abundant(presets.monogenic(2, 2))
    assert not ab.abundant
    assert ab.failing() == (0,)  # the L*-class {a} has no idempotent


def test_abundance_band():
    assert is_abundant(semigroup("semilattice-chain:2")).abundant


def test_biorder_sl2():
    bo = biorder(semigroup("semilattice-chain:2"))
    assert (0, 1) in bo.omega_l and (0, 1) in bo.omega_r
    assert bo.sandwich[(0, 1)] == (0,)
    assert bo.regular


def test_biorder_z3():
    bo = biorder(semigroup("cyclic:3"))
    assert bo.idempotents == (0,)
    assert bo.sandwich[(0, 0)] == (0,)


def test_biorder_lz2():
    bo = biorder(semigroup("left-zero:2"))
    # both omega_l ways (L-related), omega_r only reflexively
    assert bo.omega_l == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert bo.omega_r == frozenset({(0, 0), (1, 1)})


@pytest.mark.parametrize("name", SMALL_PRESETS + ("upper-triangular-f2",))
def test_biorder_omega_l_matches_ideal_inclusion(name):
    s = presets.preset(name)
    bo = biorder(s)
    n = s.order
    for e in bo.idempotents:
        se = frozenset({e} | {s.mul(x, e) for x in range(n)})
        for f in bo.idempotents:
            sf = frozenset({f} | {s.mul(x, f) for x in range(n)})
            assert ((e, f) in bo.omega_l) == (se <= sf)


@pytest.mark.parametrize("name", SMALL_PRESETS + ("upper-triangular-f2", "monogenic:2,2"))
def test_sandwich_nonempty_iff_esub_regular(name):
    s = presets.preset(name)
    assert biorder(s).regular == idempotent_generated(s).regular


def test_sandwich_criterion_census_order_3():
    # all sandwich sets nonempty iff the idempotents generate a regular
    # subsemigroup, over every semigroup of order <= 3
    from concordia.search import enumerate_tables
    for n in (1, 2, 3):
        for table in enumerate_tables(n):
            s = FiniteSemigroup(table)
            assert biorder(s).regular == idempotent_generated(s).regular


def test_idempotent_generated_z3():
    ig = idempotent_generated(semigroup("cyclic:3"))
    assert ig.subsemigroup == frozenset({0}) and ig.regular


def test_idempotent_generated_ut22():
    ut = presets.upper_triangular_f2()
    ig = idempotent_generated(ut)
    assert not ig.regular
    n = ig.non_regular_witness
    assert ut.name(n) == "[[0,1],[0,0]]"
    # the nilpotent witness is a product of two idempotents
    e = ut.names.index("[[1,1],[0,0]]")
    f = ut.names.index("[[0,0],[0,1]]")
    assert ut.is_idempotent(e) and ut.is_idempotent(f)
    assert ut.mul(e, f) == n
    assert all(ut.mul(ut.mul(n, x), n) == 0 for x in ut.elements)


def test_idempotent_generated_band():
    sl3 = semigroup("semilattice-chain:3")
    ig = idempotent_generated(sl3)
    assert ig.subsemigroup == frozenset(range(3)) and ig.regular


def test_ic_z3():
    ic = ic_check(semigroup("cyclic:3"))
    assert ic.idempotent_connected
    assert ic.alpha == (((0, 0),),) * 3  # singleton omega-ideals, identity maps


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_regular_presets_are_ic(name):
    assert ic_check(semigroup(name)).idempotent_connected


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_ic_bijections_are_forced(name):
    # the connecting bijection is unique; a non-forced matching would only
    # be warned about, but none occurs on the corpus
    assert ic_check(semigroup(name)).non_forced == ()


def test_ic_requires_abundance():
    from concordia.semigroups import NotAbundant
    with pytest.raises(NotAbundant):
        ic_check(presets.monogenic(2, 2))


def test_concordance_t2():
    rep = is_concordant(semigroup("full-transformation:2"))
    assert rep.concordant and is_regular(semigroup("full-transformation:2"))


def test_concordance_ut22():
    rep = is_concordant(presets.upper_triangular_f2())
    assert rep.abundant and not rep.idempotents_regular and not rep.concordant


def test_concordance_monogenic():
    rep = is_concordant(presets.monogenic(2, 2))
    assert not rep.abundant and not rep.concordant
    assert rep.idempotent_connected is None


def test_nonregular_concordant_witness():
    # the order-4 witness found by the census: concordant but not regular
    w = validate_table([list(r) for r in NONREGULAR_CONCORDANT])
    rep = is_concordant(w)
    assert rep.concordant and not is_regular(w)
    assert idempotent_generated(w).subsemigroup == frozenset({0, 2, 3})


def test_minimal_abundant_non_concordant_witness():
    # the unique canonical order-4 abundant semigroup whose idempotents do
    # not generate a regular subsemigroup (a minimal analogue of UT(2,2):
    # here 2*3 = 1 is a non-regular product of idempotents)
    w = validate_table([[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 2, 1], [0, 0, 0, 3]])
    rep = is_concordant(w)
    assert rep.abundant and rep.idempotent_connected
    assert not rep.idempotents_regular and rep.esub.non_regular_witness == 1
    assert w.mul(2, 3) == 1 and w.is_idempotent(2) and w.is_idempotent(3)


def test_abundant_non_ic_order_5_witness():
    # a minimal abundant semigroup that is NOT idempotent-connected (the
    # census finds six canonical ones at order 5 and none below): element 1
    # has 1-dagger = 2 with omega(2) = {0,2,3} and 1-star = 4 with
    # omega(4) = {0,4}, so no bijection can satisfy x*1 = 1*(x alpha)
    w = validate_table([[0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 1, 2, 3, 0],
                        [3, 3, 3, 3, 3], [0, 0, 0, 0, 4]])
    ab = is_abundant(w)
    assert ab.abundant and ab.dagger[1] == 2 and ab.star[1] == 4
    bo = biorder(w)
    assert bo.omega(2) == (0, 2, 3) and bo.omega(4) == (0, 4)
    ic = ic_check(w)
    assert not ic.idempotent_connected and ic.failing == 1
    assert not is_concordant(w).concordant


def test_connecting_bijection_fails_for_mismatched_witnesses():
    from concordia.semigroups import connecting_bijection
    b2 = semigroup("brandt-b2")
    # element (1,2) with the deliberately wrong witness pair ((1,1),(1,1)):
    # omega((1,1)) = {0,(1,1)} but (1,1) has no partner, so no matching
    alpha, forced = connecting_bijection(b2, 2, 1, 1)
    assert alpha is None and not forced


def test_weakly_reductive():
    assert not is_weakly_reductive(presets.null(2))
    assert is_weakly_reductive(semigroup("left-zero:2"))


@pytest.mark.parametrize("name", SMALL_PRESETS + ("upper-triangular-f2",))
def test_abundant_implies_weakly_reductive(name):
    s = presets.preset(name)
    if is_abundant(s).abundant:
        assert is_weakly_reductive(s)


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_concordant_implies_weakly_reductive(name):
    s = semigroup(name)
    assert is_concordant(s).concordant
    assert is_weakly_reductive(s)


def test_good_homomorphism_identity():
    s = semigroup("brandt-b2")
    assert is_good_homomorphism(SemigroupMap(s, s, tuple(s.elements)))


def test_good_homomorphism_collapse():
    z3 = semigroup("cyclic:3")
    triv = validate_table([[0]])
    assert is_good_homomorphism(SemigroupMap(z3, triv, (0, 0, 0)))


def test_good_homomorphism_projection():
    prod = presets.preset("direct-product:semilattice-chain:2*cyclic:3")
    sl2 = semigroup("semilattice-chain:2")
    phi = SemigroupMap(prod, sl2, tuple(i // 3 for i in range(6)))
    assert is_good_homomorphism(phi)


def test_not_homomorphism_raises():
    z3 = semigroup("cyclic:3")
    with pytest.raises(NotHomomorphism) as exc:
        is_good_homomorphism(SemigroupMap(z3, z3, (0, 0, 1)))
    assert exc.value.pair is not None


def test_direct_product_structure():
    prod = direct_product(semigroup("semilattice-chain:2"), semigroup("cyclic:3"))
    assert prod.order == 6
    assert is_concordant(prod).concordant


def test_semigroup_owns_its_derived_data():
    s = presets.preset("full-transformation:2")
    assert is_concordant(s).concordant
    assert is_concordant(s) is is_concordant(s)
    assert starred_relation(s, LEFT) is starred_relation(s, LEFT)
    assert s.op().op() is s
    copy = dataclasses.replace(s)
    assert copy == s and hash(copy) == hash(s)
    assert s._memo and copy._memo == {}
    # nothing outside s keeps s alive
    ref = weakref.ref(s)
    del s
    gc.collect()
    assert ref() is None


def test_opposite_holds_its_semigroup_weakly():
    # s and s.op() form no reference cycle: dropping s frees it at once,
    # without the cyclic collector, and s.op() then builds its opposite anew
    table = [list(r) for r in semigroup("full-transformation:2").table]
    gc.disable()
    try:
        s = validate_table(table)
        op = s.op()
        assert op.op() is s
        ref = weakref.ref(s)
        del s
        assert ref() is None
        again = op.op()
        assert again.table == tuple(map(tuple, table)) and again.op() is op
    finally:
        gc.enable()


def test_adjoin_identity_leaves_a_monoid_acyclic():
    # a monoid is its own S^1 and is not memoised on itself, so dropping it
    # frees it at once, without the cyclic collector
    table = [list(r) for r in semigroup("full-transformation:2").table]
    gc.disable()
    try:
        s = validate_table(table)
        assert adjoin_identity(s) is s
        ref = weakref.ref(s)
        del s
        assert ref() is None
    finally:
        gc.enable()


def test_bipartite_matching_leaves_no_cycle():
    gc.collect()
    gc.disable()
    try:
        left = right = (0, 1, 2)
        edges = frozenset((x, y) for x in left for y in right if x != y)
        assert _bipartite_matching(left, right, edges) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()
