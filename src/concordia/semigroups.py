"""Finite semigroups from Cayley tables.

Green and starred Green relations, abundance, idempotent-connectedness,
concordance, weak reductivity, good homomorphisms and the biorder structure
on idempotents.  Products read left to right: table[i][j] is i*j.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import wraps
from typing import Iterable, Optional

LEFT = "left"
RIGHT = "right"


class SemigroupError(Exception):
    pass


class ClosureViolation(SemigroupError):
    def __init__(self, row: int, col: int, value: object):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"entry at ({row},{col}) is {value!r}, outside 0..n-1")


class AssociativityViolation(SemigroupError):
    def __init__(self, i: int, j: int, k: int):
        self.triple = (i, j, k)
        super().__init__(f"(i*j)*k != i*(j*k) for (i,j,k)=({i},{j},{k})")


class NotAbundant(SemigroupError):
    pass


class NotHomomorphism(SemigroupError):
    def __init__(self, a: int, b: int):
        self.pair = (a, b)
        super().__init__(f"(a*b)phi != (a phi)(b phi) for (a,b)=({a},{b})")


@dataclass(frozen=True)
class FiniteSemigroup:
    """A finite semigroup on element ids 0..n-1 given by its Cayley table."""

    table: tuple[tuple[int, ...], ...]
    names: Optional[tuple[str, ...]] = None
    has_adjoined_identity: bool = False
    # derived data (see _memoised), owned by this instance; compare=False
    # keeps it out of == and hash, init=False keeps dataclasses.replace from
    # carrying it into a changed copy
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def elements(self) -> range:
        return range(len(self.table))

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def name(self, i: int) -> str:
        return self.names[i] if self.names else str(i)

    def is_idempotent(self, e: int) -> bool:
        return self.table[e][e] == e

    def op(self) -> "FiniteSemigroup":
        """The opposite semigroup (transposed table); s.op().op() is s.

        The opposite is memoised on s and holds s only weakly, so the two
        form no reference cycle: s is freed as soon as nothing else holds
        it."""
        of = self._memo.get("op_of")
        back = of() if of is not None else None
        if back is not None:
            return back
        if "op" not in self._memo:
            n = self.order
            table = tuple(tuple(self.table[j][i] for j in range(n)) for i in range(n))
            op = FiniteSemigroup(table, self.names, self.has_adjoined_identity)
            op._memo["op_of"] = weakref.ref(self)
            self._memo["op"] = op
        return self._memo["op"]


def _memoised(fn):
    """Cache fn(s, *args) in s._memo, so that it lives and dies with s."""
    @wraps(fn)
    def cached(s: FiniteSemigroup, *args):
        key = (fn, *args) if args else fn
        memo = s._memo
        if key not in memo:
            memo[key] = fn(s, *args)
        return memo[key]
    return cached


@_memoised
def idempotents(s: FiniteSemigroup) -> tuple[int, ...]:
    return tuple(e for e in s.elements if s.table[e][e] == e)


@_memoised
def identity_of(s: FiniteSemigroup) -> Optional[int]:
    for e in s.elements:
        if all(s.table[e][x] == x == s.table[x][e] for x in s.elements):
            return e
    return None


def _generating_set(s: FiniteSemigroup) -> list[int]:
    """Walking the elements in order, each one not yet a product of those
    kept before it.  The closure grows incrementally: each element, as it
    joins, is multiplied on both sides by every element already in it."""
    table = s.table
    gens: list[int] = []
    closure: list[int] = []
    generated: set[int] = set()
    for x in s.elements:
        if x in generated:
            continue
        gens.append(x)
        frontier = [x]
        while frontier:
            a = frontier.pop()
            if a in generated:
                continue
            generated.add(a)
            closure.append(a)
            row = table[a]
            frontier += [row[b] for b in closure]
            frontier += [table[b][a] for b in closure]
    return gens


def _light_associative(s: FiniteSemigroup) -> bool:
    """(a g) c == a (g c) for every g of `_generating_set(s)` and all a, c."""
    table = s.table
    for g in _generating_set(s):
        g_row = table[g]
        # row a of each side: (a g) c and a (g c) for every c
        if ([table[row[g]] for row in table]
                != [tuple(map(row.__getitem__, g_row)) for row in table]):
            return False
    return True


def validate_table(raw, names=None, one: Optional[int] = None) -> FiniteSemigroup:
    """Validate closure and associativity of a square integer grid.

    Associativity is certified by Light's test: (a g) c = a (g c) for every
    g of a generating set and all a, c (Clifford & Preston I, 1.2; the
    argument is `categories.validate_category`'s, for a one-object
    category).  When it fails, a full triple scan reports the
    lexicographically first failing triple.
    """
    grid = (list, tuple)
    if (not isinstance(raw, grid) or not raw
            or any(not isinstance(row, grid) or len(row) != len(raw) for row in raw)):
        raise SemigroupError("table must be a non-empty square grid")
    n = len(raw)
    if names is not None and (not isinstance(names, grid) or len(names) != n
                              or not all(isinstance(x, str) for x in names)):
        raise SemigroupError(f"names must be a list of {n} strings")
    if one is not None and (not isinstance(one, int) or isinstance(one, bool)):
        raise SemigroupError(f"declared identity {one!r} is not an element index")
    for i, row in enumerate(raw):
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise ClosureViolation(i, j, v)
    table = tuple(tuple(row) for row in raw)
    s = FiniteSemigroup(table, tuple(names) if names else None)
    if not _light_associative(s):
        for i in range(n):
            for j in range(n):
                ij = table[i][j]
                for k in range(n):
                    if table[ij][k] != table[i][table[j][k]]:
                        raise AssociativityViolation(i, j, k)
        raise AssertionError("Light's test failed but the triple scan passed")
    if one is not None and identity_of(s) != one:
        raise SemigroupError(f"declared identity {one} is not a two-sided identity")
    return s


def adjoin_identity(s: FiniteSemigroup) -> FiniteSemigroup:
    """S^1: S itself when S is a monoid, otherwise S with an identity
    appended.  Only the appended copy is memoised on s: memoising s on
    itself would be a reference cycle."""
    if identity_of(s) is not None:
        return s
    return _adjoined_copy(s)


@_memoised
def _adjoined_copy(s: FiniteSemigroup) -> FiniteSemigroup:
    n = s.order
    table = [list(row) + [i] for i, row in enumerate(s.table)]
    table.append(list(range(n + 1)))
    names = (tuple(s.names) + ("1",)) if s.names else None
    return FiniteSemigroup(tuple(tuple(r) for r in table), names, has_adjoined_identity=True)


@dataclass(frozen=True)
class EqRelation:
    """Equivalence on 0..n-1; partition[x] is the minimum member of x's class."""

    partition: tuple[int, ...]

    def same(self, a: int, b: int) -> bool:
        return self.partition[a] == self.partition[b]

    def class_of(self, a: int) -> tuple[int, ...]:
        r = self.partition[a]
        return tuple(x for x, p in enumerate(self.partition) if p == r)

    def classes(self) -> tuple[tuple[int, ...], ...]:
        reps = sorted(set(self.partition))
        return tuple(self.class_of(r) for r in reps)

    def refines(self, coarser: "EqRelation") -> bool:
        """Every class of self lies inside a class of `coarser`."""
        seen = {}
        for x, p in enumerate(self.partition):
            q = coarser.partition[x]
            if seen.setdefault(p, q) != q:
                return False
        return True

    @staticmethod
    def from_signatures(signatures: Iterable) -> "EqRelation":
        groups: dict = {}
        sigs = list(signatures)
        for x, sig in enumerate(sigs):
            groups.setdefault(sig, []).append(x)
        part = [0] * len(sigs)
        for members in groups.values():
            m = min(members)
            for x in members:
                part[x] = m
        return EqRelation(tuple(part))

    def meet(self, other: "EqRelation") -> "EqRelation":
        return EqRelation.from_signatures(zip(self.partition, other.partition))

    def join(self, other: "EqRelation") -> "EqRelation":
        n = len(self.partition)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for rel in (self, other):
            for x, p in enumerate(rel.partition):
                rx, rp = find(x), find(p)
                if rx != rp:
                    parent[max(rx, rp)] = min(rx, rp)
        return EqRelation.from_signatures(find(x) for x in range(n))


@dataclass(frozen=True)
class GreenRelations:
    l: EqRelation
    r: EqRelation
    h: EqRelation
    d: EqRelation


@_memoised
def green_classes(s: FiniteSemigroup) -> GreenRelations:
    """L via S^1 a set equality, R via a S^1, H = L meet R, D = L join R."""
    n = s.order
    lsets = [frozenset({a} | {s.table[x][a] for x in range(n)}) for a in range(n)]
    rsets = [frozenset({a} | {s.table[a][x] for x in range(n)}) for a in range(n)]
    l = EqRelation.from_signatures(lsets)
    r = EqRelation.from_signatures(rsets)
    return GreenRelations(l, r, l.meet(r), l.join(r))


@_memoised
def starred_relation(s: FiniteSemigroup, side: str) -> EqRelation:
    """L* (side=LEFT): a == b iff x -> ax and x -> bx induce the same kernel
    partition of S^1; R* dual with x -> xa."""
    s1 = adjoin_identity(s)
    n1 = s1.order
    sigs = []
    for a in s.elements:
        if side == LEFT:
            values = [s1.table[a][x] for x in range(n1)]
        elif side == RIGHT:
            values = [s1.table[x][a] for x in range(n1)]
        else:
            raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}")
        first: dict[int, int] = {}
        sigs.append(tuple(first.setdefault(v, x) for x, v in enumerate(values)))
    return EqRelation.from_signatures(sigs)


@dataclass(frozen=True)
class AbundanceResult:
    abundant: bool
    # per element: minimum idempotent in its R*-class / L*-class, None if absent
    dagger: tuple[Optional[int], ...]
    star: tuple[Optional[int], ...]

    def failing(self) -> tuple[int, ...]:
        return tuple(a for a in range(len(self.dagger))
                     if self.dagger[a] is None or self.star[a] is None)


@_memoised
def is_abundant(s: FiniteSemigroup) -> AbundanceResult:
    lstar = starred_relation(s, LEFT)
    rstar = starred_relation(s, RIGHT)
    es = set(idempotents(s))
    dagger, star = [], []
    for a in s.elements:
        rwit = [e for e in rstar.class_of(a) if e in es]
        lwit = [e for e in lstar.class_of(a) if e in es]
        dagger.append(min(rwit) if rwit else None)
        star.append(min(lwit) if lwit else None)
    ok = all(d is not None for d in dagger) and all(t is not None for t in star)
    return AbundanceResult(ok, tuple(dagger), tuple(star))


@dataclass
class BiorderedSet:
    """Quasi-orders and sandwich sets on E(S).

    e omega_l f iff ef = e; e omega_r f iff fe = e;
    S(e,f) = {h in E : ehf = ef and fhe = h}; regular iff all S(e,f) nonempty.
    """

    idempotents: tuple[int, ...]
    omega_l: frozenset
    omega_r: frozenset
    sandwich: dict
    regular: bool

    def omega(self, e: int) -> tuple[int, ...]:
        return tuple(g for g in self.idempotents
                     if (g, e) in self.omega_l and (g, e) in self.omega_r)

    def omega_pairs(self) -> frozenset:
        return frozenset((g, e) for (g, e) in self.omega_l if (g, e) in self.omega_r)


@_memoised
def biorder(s: FiniteSemigroup) -> BiorderedSet:
    es = idempotents(s)
    om_l = frozenset((e, f) for e in es for f in es if s.table[e][f] == e)
    om_r = frozenset((e, f) for e in es for f in es if s.table[f][e] == e)
    sandwich = {}
    regular = True
    for e in es:
        for f in es:
            ef = s.table[e][f]
            hs = tuple(h for h in es
                       if s.table[s.table[e][h]][f] == ef and s.table[s.table[f][h]][e] == h)
            sandwich[(e, f)] = hs
            if not hs:
                regular = False
    return BiorderedSet(es, om_l, om_r, sandwich, regular)


@dataclass(frozen=True)
class IdempotentGenerated:
    subsemigroup: frozenset
    regular: bool
    non_regular_witness: Optional[int]


@_memoised
def regular_elements(s: FiniteSemigroup) -> frozenset:
    return frozenset(x for x in s.elements
                     if any(s.table[s.table[x][y]][x] == x for y in s.elements))


def is_regular(s: FiniteSemigroup) -> bool:
    return len(regular_elements(s)) == s.order


@_memoised
def idempotent_generated(s: FiniteSemigroup) -> IdempotentGenerated:
    """Closure of E(S) under product, and regularity of that subsemigroup."""
    sub = set(idempotents(s))
    frontier = list(sub)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(sub):
                for p in (s.table[a][b], s.table[b][a]):
                    if p not in sub:
                        sub.add(p)
                        nxt.append(p)
        frontier = nxt
    witness = None
    for x in sorted(sub):
        if not any(s.table[s.table[x][y]][x] == x for y in sub):
            witness = x
            break
    return IdempotentGenerated(frozenset(sub), witness is None, witness)


def _bipartite_matching(left, right, edges):
    """Deterministic augmenting-path matching; returns x -> y covering both
    sides, or None."""
    if len(left) != len(right):
        return None
    match_of_y: dict[int, int] = {}
    for x in left:
        if not _augment(x, set(), right, edges, match_of_y):
            return None
    return {x: y for y, x in match_of_y.items()}


def _augment(x, seen, right, edges, match_of_y) -> bool:
    """Augment match_of_y along a path from x avoiding `seen`, if one exists."""
    for y in right:
        if (x, y) in edges and y not in seen:
            seen.add(y)
            if y not in match_of_y or _augment(match_of_y[y], seen, right, edges,
                                               match_of_y):
                match_of_y[y] = x
                return True
    return False


def _matching_is_forced(left, right, edges, matching):
    for x in left:
        pruned = edges - {(x, matching[x])}
        if _bipartite_matching(left, right, pruned) is not None:
            return False
    return True


def connecting_bijection(s: FiniteSemigroup, a: int, e_dagger: int, e_star: int):
    """Bijection alpha: omega(e_dagger) -> omega(e_star) with xa = a(x alpha),
    found by perfect matching.  Returns (alpha or None, forced flag)."""
    bo = biorder(s)
    dom = bo.omega(e_dagger)
    cod = bo.omega(e_star)
    edges = frozenset((x, y) for x in dom for y in cod
                      if s.table[x][a] == s.table[a][y])
    alpha = _bipartite_matching(dom, cod, edges)
    if alpha is None:
        return None, False
    for x, y in alpha.items():
        assert s.table[x][a] == s.table[a][y]
    return alpha, _matching_is_forced(dom, cod, edges, alpha)


@dataclass(frozen=True)
class ICResult:
    idempotent_connected: bool
    # per element id: the bijection omega(a_dagger) -> omega(a_star)
    alpha: tuple
    failing: Optional[int]
    non_forced: tuple[int, ...]


@_memoised
def ic_check(s: FiniteSemigroup) -> ICResult:
    """Idempotent-connectedness, checked for the canonical (a_dagger, a_star)
    pair of every element (the definition asks for *some* pair; convention
    recorded in the docs).  Matchings are verified pointwise; a matching that
    is not forced is reported as a warning, not an error."""
    ab = is_abundant(s)
    if not ab.abundant:
        raise NotAbundant(f"elements {ab.failing()} lack starred idempotent witnesses")
    alphas = []
    non_forced = []
    for a in s.elements:
        alpha, forced = connecting_bijection(s, a, ab.dagger[a], ab.star[a])
        if alpha is None:
            return ICResult(False, tuple(alphas), a, tuple(non_forced))
        if not forced:
            non_forced.append(a)
        alphas.append(tuple(sorted(alpha.items())))
    return ICResult(True, tuple(alphas), None, tuple(non_forced))


@dataclass(frozen=True)
class ConcordanceReport:
    abundant: bool
    idempotent_connected: Optional[bool]  # None when abundance already failed
    idempotents_regular: bool
    concordant: bool
    abundance: AbundanceResult
    esub: IdempotentGenerated
    ic: Optional[ICResult]


@_memoised
def is_concordant(s: FiniteSemigroup) -> ConcordanceReport:
    ab = is_abundant(s)
    ig = idempotent_generated(s)
    ic: Optional[ICResult] = None
    ic_ok: Optional[bool] = None
    if ab.abundant:
        ic = ic_check(s)
        ic_ok = ic.idempotent_connected
    return ConcordanceReport(
        abundant=ab.abundant,
        idempotent_connected=ic_ok,
        idempotents_regular=ig.regular,
        concordant=bool(ab.abundant and ic_ok and ig.regular),
        abundance=ab,
        esub=ig,
        ic=ic,
    )


def is_weakly_reductive(s: FiniteSemigroup) -> bool:
    """a -> (row_a, column_a) of the Cayley table is injective."""
    n = s.order
    seen = set()
    for a in range(n):
        key = (s.table[a], tuple(s.table[x][a] for x in range(n)))
        if key in seen:
            return False
        seen.add(key)
    return True


@dataclass(frozen=True)
class SemigroupMap:
    source: FiniteSemigroup
    target: FiniteSemigroup
    image: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.image[a]


def check_homomorphism(phi: SemigroupMap) -> None:
    s, t, f = phi.source, phi.target, phi.image
    for a in s.elements:
        for b in s.elements:
            if f[s.table[a][b]] != t.table[f[a]][f[b]]:
                raise NotHomomorphism(a, b)


def is_good_homomorphism(phi: SemigroupMap) -> bool:
    """a L* b implies a.phi L* b.phi, and dually for R*."""
    check_homomorphism(phi)
    for side in (LEFT, RIGHT):
        src = starred_relation(phi.source, side)
        dst = starred_relation(phi.target, side)
        for a in phi.source.elements:
            for b in phi.source.elements:
                if src.same(a, b) and not dst.same(phi.image[a], phi.image[b]):
                    return False
    return True


def direct_product(s: FiniteSemigroup, t: FiniteSemigroup) -> FiniteSemigroup:
    ns, nt = s.order, t.order

    def idx(a, b):
        return a * nt + b

    table = [[0] * (ns * nt) for _ in range(ns * nt)]
    for a in range(ns):
        for b in range(nt):
            for c in range(ns):
                for d in range(nt):
                    table[idx(a, b)][idx(c, d)] = idx(s.table[a][c], t.table[b][d])
    names = None
    if s.names or t.names:
        names = tuple(f"({s.name(a)},{t.name(b)})" for a in range(ns) for b in range(nt))
    return FiniteSemigroup(tuple(tuple(r) for r in table), names)
