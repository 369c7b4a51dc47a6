import json
from itertools import permutations
from pathlib import Path

import pytest

from concordia import serialization as ser
from concordia.search import (
    BudgetExceeded,
    SearchSpec,
    automorphism_count,
    canonical_form,
    enumerate_tables,
    evaluate_predicates,
    run_search,
)
from concordia.semigroups import FiniteSemigroup, validate_table
from conftest import concordant_census

REFERENCE_CLASSES = Path(__file__).resolve().parent.parent / "bench/reference/classes.json"


def test_enumeration_counts():
    # labeled associative tables: 1, 8, 113 (OEIS A023814)
    assert sum(1 for _ in enumerate_tables(1)) == 1
    assert sum(1 for _ in enumerate_tables(2)) == 8
    assert sum(1 for _ in enumerate_tables(3)) == 113


def test_enumerated_tables_are_associative():
    for table in enumerate_tables(3):
        validate_table([list(r) for r in table])


def test_canonical_form_is_idempotent_and_minimal():
    for table in enumerate_tables(2):
        canon = canonical_form(table)
        assert canonical_form(canon) == canon
        assert canon <= table


def test_canonical_class_counts_order2():
    # 4 semigroups of order 2 up to isomorphism (Z2, null, left-zero,
    # right-zero, chain -- left/right zero are anti-isomorphic but distinct)
    canons = {canonical_form(t) for t in enumerate_tables(2)}
    assert len(canons) == 5


def test_concordant_census_small():
    spec = SearchSpec(max_order=2, predicate=("concordant",),
                      symmetry_reduction=False)
    census = run_search(spec)
    assert census["orders"]["1"]["matching"] == 1
    assert census["orders"]["2"]["matching"] == 6
    witnesses = census["orders"]["2"]["witnesses"]
    assert [[0, 0], [0, 1]] in witnesses  # the 2-chain semilattice
    assert [[0, 1], [1, 0]] in witnesses  # Z2


def test_reduced_and_unreduced_agree_up_to_relabelling():
    for predicate in ((), ("concordant",), ("regular",)):
        reduced = run_search(SearchSpec(3, predicate, True))
        unreduced = run_search(SearchSpec(3, predicate, False), witness_cap=10**6)
        for n in ("1", "2", "3"):
            classes = {canonical_form(tuple(map(tuple, w)))
                       for w in unreduced["orders"][n]["witnesses"]}
            assert len(classes) == reduced["orders"][n]["matching"]


def test_search_deterministic():
    spec = SearchSpec(max_order=3, predicate=("abundant", "!regular"))
    a = ser.dumps(run_search(spec))
    b = ser.dumps(run_search(spec))
    assert a == b


def test_predicates_on_known_semigroups():
    flags = evaluate_predicates(((0, 0), (0, 1)))  # the 2-chain
    assert flags["concordant"] and flags["regular"] and flags["abundant"]
    flags = evaluate_predicates(((0, 0), (0, 0)))  # null of order 2
    assert not flags["abundant"] and not flags["weakly-reductive"]


def test_unknown_predicate_rejected():
    with pytest.raises(ValueError):
        SearchSpec(2, ("shiny",))
    with pytest.raises(ValueError):
        SearchSpec(9)
    with pytest.raises(ValueError):
        SearchSpec(7)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded) as exc:
        run_search(SearchSpec(4, ()), budget_seconds=0.0)
    assert exc.value.partial["complete"] is False


def test_negated_predicates():
    census = run_search(SearchSpec(3, ("regular", "!concordant")))
    # regular implies concordant, so nothing matches
    assert census["total_matching"] == 0


def test_census_facts_order_4():
    # recorded census outcomes at order <= 4 (canonical forms):
    # no abundant semigroup fails the idempotent-connected condition,
    # and exactly one abundant semigroup fails E-regularity
    no_ic = run_search(SearchSpec(4, ("abundant", "!IC")))
    assert no_ic["total_matching"] == 0
    not_conc = run_search(SearchSpec(4, ("abundant", "!concordant")))
    assert not_conc["total_matching"] == 1
    assert not_conc["orders"]["4"]["witnesses"] == [
        [[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 2, 1], [0, 0, 0, 3]]]


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_orderly_walk_yields_exactly_the_canonical_tables(n):
    # the reference: label every table, keep those equal to their canonical form
    reference = [t for t in enumerate_tables(n) if canonical_form(t) == t]
    assert list(enumerate_tables(n, canonical=True)) == reference


def test_automorphism_count_matches_plain_count():
    # an automorphism is a permutation p with p(ab) = p(a)p(b)
    for n in range(1, 5):
        for table in enumerate_tables(n, canonical=True):
            plain = sum(all(p[table[a][b]] == table[p[a]][p[b]]
                            for a in range(n) for b in range(n))
                        for p in permutations(range(n)))
            assert automorphism_count(table) == plain, table


def test_orderly_census_matches_reference_classes():
    # the classes file was written by the labelled walk plus canonical_form
    census = concordant_census(5)
    reference = json.loads(REFERENCE_CLASSES.read_text(encoding="utf-8"))["classes"]
    assert {n: o["witnesses"] for n, o in census["orders"].items()} == reference
    # OEIS A027851 (classes) and A023814 (labelled tables)
    assert [o["candidates"] for o in census["orders"].values()] == [1, 5, 24, 188, 1915]
    assert ([o["tables_enumerated"] for o in census["orders"].values()]
            == [1, 8, 113, 3492, 183732])


@pytest.mark.slow
def test_order_6_census():
    # about 70 s on a 2-core x86-64 host with Python 3.11
    census = run_search(SearchSpec(6))
    order6 = census["orders"]["6"]
    assert order6["candidates"] == 28634
    assert order6["tables_enumerated"] == 17061118
