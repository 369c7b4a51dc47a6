"""Exhaustive census of small semigroups.

Backtracking enumeration of associative Cayley tables in lexicographic cell
order with incremental associativity pruning.  With symmetry reduction the
walk is orderly: lex-leader pruning at the end of each row leaves exactly
the canonical tables, one per isomorphism class, and each class is counted
as n!/|Aut(T)| labelled tables.
"""
from __future__ import annotations

import functools
import math
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

MAX_SEARCH_ORDER = 6


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


@functools.cache
def _permutations(n: int) -> tuple:
    """Every (perm, inv) pair on 0..n-1, perm in lexicographic order; built on
    first use for each order."""
    out = []
    for perm in permutations(range(n)):
        inv = [0] * n
        for a, pa in enumerate(perm):
            inv[pa] = a
        out.append((perm, tuple(inv)))
    return tuple(out)


def _advance(table, live, filled: int):
    """The relabellings still live once rows 0..filled-1 are filled, or None
    when one of them is lexicographically smaller than the table.

    `live` holds (perm, inv, a): the relabelling by perm agrees with the
    table on rows 0..a-1, and row a was not determined.  Relabelled row a
    depends on source row inv[a] only, so it is determined once that row
    is filled.  Rows are compared in order up to the first difference or
    the first row not determined.  A smaller row keeps its prefix in every
    completion, so no completion is canonical; a larger one rules the
    relabelling out below this row.  Once every row is filled this is the full
    canonicity test, and what stays live is Aut(table).
    """
    out = []
    for perm, inv, a in live:
        while a < filled and inv[a] < filled:
            row = table[inv[a]]
            relabelled = [perm[row[b]] for b in inv]
            if relabelled != table[a]:
                if relabelled < table[a]:
                    return None
                break
            a += 1
        else:
            out.append((perm, inv, a))
    return out


def enumerate_tables(n: int, canonical: bool = False):
    """All associative n x n tables, lexicographic in row-major cell order;
    with `canonical`, only those equal to their `canonical_form`.

    The canonical walk prunes after each completed row (`_advance`), so no
    other member of an isomorphism class is ever completed.
    """
    cells = [(i, j) for i in range(n) for j in range(n)]
    table = [[-1] * n for _ in range(n)]

    # preimages[x]: the filled cells (a, b) with ab = x, the current cell
    # left out: its own triples are among the (i, j, c) and (a, i, j) scans
    preimages = [[] for _ in range(n)]

    def consistent(i, j):
        # check the triples whose evaluation involves cell (i, j)
        t = table
        ti, tj = t[i], t[j]
        v = ti[j]
        tv = t[v]
        for c in range(n):  # (i, j, c)
            jc = tj[c]
            if tv[c] != -1 and jc != -1 and ti[jc] != -1 and tv[c] != ti[jc]:
                return False
        for ta in t:  # (a, i, j)
            ai = ta[i]
            if ai != -1 and t[ai][j] != -1 and ta[v] != -1 and t[ai][j] != ta[v]:
                return False
        for a, b in preimages[i]:  # (a, b, j) with ab = i
            bj = t[b][j]
            if bj != -1 and t[a][bj] != -1 and v != t[a][bj]:
                return False
        for b, c in preimages[j]:  # (i, b, c) with bc = j
            ib = ti[b]
            if ib != -1 and t[ib][c] != -1 and t[ib][c] != v:
                return False
        return True

    # live[i]: the relabellings not yet ruled out once rows 0..i-1 are filled
    live = [None] * (n + 1)
    if canonical:
        live[0] = [(perm, inv, 0) for perm, inv in _permutations(n)]

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        i, j = cells[k]
        for v in range(n):
            table[i][j] = v
            if not consistent(i, j):
                continue
            if canonical and j == n - 1:
                live[i + 1] = _advance(table, live[i], i + 1)
                if live[i + 1] is None:
                    continue
            preimages[v].append((i, j))
            yield from fill(k + 1)
            preimages[v].pop()
        table[i][j] = -1

    yield from fill(0)


def automorphism_count(table) -> int:
    """|Aut(T)|: the permutations whose relabelling of T is T itself."""
    rows = [list(row) for row in table]
    count = 0
    for perm, inv in _permutations(len(rows)):
        for a, source in enumerate(inv):
            row = rows[source]
            if [perm[row[b]] for b in inv] != rows[a]:
                break
        else:
            count += 1
    return count


def canonical_form(table) -> tuple:
    """Minimum relabelling of the table under all element permutations."""
    n = len(table)
    best = None
    for perm, inv in _permutations(n):
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
        # a canonical table stands for its n!/|Aut(T)| labelled isomorphs
        labellings = math.factorial(n)
        enumerated = 0
        candidates = []
        for table in enumerate_tables(n, canonical=spec.symmetry_reduction):
            candidates.append(table)
            if len(candidates) % 256 == 0 and out_of_budget():
                census["complete"] = False
                raise BudgetExceeded("search budget exceeded", census)
            enumerated += (labellings // automorphism_count(table)
                           if spec.symmetry_reduction else 1)
        matching = [t for t in candidates if not spec.predicate
                    or _matches(evaluate_predicates(t), spec.predicate)]
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
