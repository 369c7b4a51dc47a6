"""Exhaustive census of small semigroups.

Backtracking enumeration of associative Cayley tables in lexicographic cell
order with incremental associativity pruning; optional canonical-form
symmetry reduction under element relabelling.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from .cones import BudgetExceeded
from .semigroups import (
    FiniteSemigroup,
    ic_check,
    idempotent_generated,
    is_abundant,
    is_concordant,
    is_regular,
    is_weakly_reductive,
)

MAX_SEARCH_ORDER = 5


@dataclass(frozen=True)
class SearchSpec:
    max_order: int
    predicate: tuple = ()  # names, '!'-prefixed for negation; conjunction
    symmetry_reduction: bool = True

    def __post_init__(self):
        if not 1 <= self.max_order <= MAX_SEARCH_ORDER:
            raise ValueError(f"max_order must be in 1..{MAX_SEARCH_ORDER}")
        for p in self.predicate:
            if p.lstrip("!") not in PREDICATES:
                raise ValueError(f"unknown predicate {p!r}; known: {sorted(PREDICATES)}")


def _pred_ic(s: FiniteSemigroup) -> bool:
    if not is_abundant(s).abundant:
        return False
    return ic_check(s).idempotent_connected


PREDICATES = {
    "abundant": lambda s: is_abundant(s).abundant,
    "IC": _pred_ic,
    "E-regular": lambda s: idempotent_generated(s).regular,
    "concordant": lambda s: is_concordant(s).concordant,
    "regular": is_regular,
    "weakly-reductive": is_weakly_reductive,
}


def enumerate_tables(n: int):
    """All associative n x n tables, lexicographic in row-major cell order."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    table = [[-1] * n for _ in range(n)]

    def consistent(i, j):
        # check the triples whose evaluation involves cell (i, j)
        t = table
        v = t[i][j]
        for c in range(n):  # (i, j, c)
            jc = t[j][c]
            if t[v][c] != -1 and jc != -1 and t[i][jc] != -1 and t[v][c] != t[i][jc]:
                return False
        for a in range(n):  # (a, i, j)
            ai = t[a][i]
            if ai != -1 and t[ai][j] != -1 and t[a][v] != -1 and t[ai][j] != t[a][v]:
                return False
        for a in range(n):  # (a, b, j) with t[a][b] == i
            for b in range(n):
                if t[a][b] == i:
                    bj = t[b][j]
                    if bj != -1 and t[a][bj] != -1 and v != t[a][bj]:
                        return False
        for b in range(n):  # (i, b, c) with t[b][c] == j
            for c in range(n):
                if t[b][c] == j:
                    ib = t[i][b]
                    if ib != -1 and t[ib][c] != -1 and t[ib][c] != v:
                        return False
        return True

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        i, j = cells[k]
        for v in range(n):
            table[i][j] = v
            if consistent(i, j):
                yield from fill(k + 1)
        table[i][j] = -1

    yield from fill(0)


def canonical_form(table) -> tuple:
    """Minimum relabelling of the table under all element permutations."""
    n = len(table)
    best = None
    for perm in permutations(range(n)):
        inv = [0] * n
        for a, pa in enumerate(perm):
            inv[pa] = a
        relabeled = tuple(tuple(perm[table[inv[a]][inv[b]]] for b in range(n))
                          for a in range(n))
        if best is None or relabeled < best:
            best = relabeled
    return best


def evaluate_predicates(table) -> dict:
    s = FiniteSemigroup(table)
    return {name: fn(s) for name, fn in PREDICATES.items()}


def _matches(flags: dict, predicate) -> bool:
    for p in predicate:
        if p.startswith("!"):
            if flags[p[1:]]:
                return False
        elif not flags[p]:
            return False
    return True


def run_search(spec: SearchSpec, budget_seconds: Optional[float] = None,
               witness_cap: int = 10) -> dict:
    """Census per order with counts and witness tables; deterministic."""
    start = time.monotonic()
    census = {"spec": {"max_order": spec.max_order,
                       "predicate": list(spec.predicate),
                       "symmetry_reduction": spec.symmetry_reduction},
              "orders": {}, "complete": True, "total_matching": 0}

    def out_of_budget():
        return budget_seconds is not None and time.monotonic() - start > budget_seconds

    for n in range(1, spec.max_order + 1):
        enumerated = 0
        candidates = []
        for table in enumerate_tables(n):
            enumerated += 1
            if enumerated % 256 == 0 and out_of_budget():
                census["complete"] = False
                raise BudgetExceeded("search budget exceeded", census)
            if spec.symmetry_reduction and canonical_form(table) != table:
                continue
            candidates.append(table)
        matching = [t for t in candidates
                    if _matches(evaluate_predicates(t), spec.predicate)]
        census["orders"][str(n)] = {
            "tables_enumerated": enumerated,
            "candidates": len(candidates),
            "matching": len(matching),
            "witnesses": [[list(r) for r in t] for t in matching[:witness_cap]],
        }
        census["total_matching"] += len(matching)
        if out_of_budget():
            census["complete"] = n == spec.max_order
            if not census["complete"]:
                raise BudgetExceeded("search budget exceeded", census)
    return census
