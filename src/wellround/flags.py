"""Rational flags, their canonical forms, and orbit enumeration under
arithmetic groups.

A flag is a strictly nested chain of nonzero proper Q-subspaces of Q^n,
stored as saturated sublattice bases in column Hermite normal form (the
full space is an implicit final member).  Flags of a fixed dimension
type are SL_n(Z)/P(Z), P(Z) the stabilizer of the standard flag, so
their orbits under a group Gamma are the double cosets
Gamma \\ SL_n(Z) / P(Z): the P(Z)-orbits on the finite coset space
Omega = Gamma \\ SL_n(Z), which is read off h mod N (`Omega`).  Orbit
representatives and equivalence witnesses come from integral spanning
trees of the BFS over the generators of SL_n(Z) and of P(Z).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import add, mul
from typing import Callable, Iterable, Optional, Sequence

from .exactla import (
    QQ, CertificateError, Echelon, IntMatrix, IntVector, f_rank, f_solve,
    hnf, hnf_transform, int_det, int_identity, int_inverse,
    int_matmul, int_matrix, int_transpose, is_saturated_hnf, saturation,
)
from .lattice import GroupSpec


# ---------------------------------------------------------------------------
# Rational flags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalFlag:
    """Strictly nested saturated sublattices of Z^n, proper members only.

    Each member is an n x d integer matrix (tuple of rows) whose columns
    are a canonical (column-HNF) basis of the saturated sublattice.
    """

    n: int
    members: tuple[IntMatrix, ...]

    def __post_init__(self):
        dims = []
        prev = None
        for m in self.members:
            if len(m) != self.n:
                raise ValueError("member has wrong ambient dimension")
            d = len(m[0]) if m else 0
            if not 0 < d < self.n:
                raise ValueError("members must be proper nonzero subspaces")
            if not is_saturated_hnf(m):
                raise ValueError("member basis is not saturated-canonical")
            if dims and d <= dims[-1]:
                raise ValueError("dims must strictly increase")
            if prev is not None and not _subspace_contained(prev, m):
                raise ValueError("members must be nested")
            dims.append(d)
            prev = m

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(m[0]) for m in self.members)

    @property
    def num_members(self) -> int:
        """Member count including the implicit full space."""
        return len(self.members) + 1

    def member_columns(self, j: int) -> tuple[IntVector, ...]:
        return int_transpose(self.members[j])

    def delete(self, j: int) -> "RationalFlag":
        return RationalFlag(self.n, self.members[:j] + self.members[j + 1:])

    def transform(self, u: IntMatrix) -> "RationalFlag":
        """The flag with members u * V_j, re-canonicalized."""
        return flag_from_members(self.n,
                                 [int_matmul(u, m) for m in self.members])

    def sort_key(self):
        return (self.n, self.dims, self.members)

    def to_json(self) -> dict:
        return {"n": self.n, "members": [[list(row) for row in m]
                                         for m in self.members]}

    @staticmethod
    def from_json(data: dict) -> "RationalFlag":
        n = int(data["n"])
        members = [int_matrix(m) for m in data["members"]]
        if not members:
            raise ValueError("a flag needs at least one proper member")
        if any(not any(x for row in m for x in row) for m in members):
            raise ValueError("members must be proper nonzero subspaces")
        return flag_from_members(n, members)


def _subspace_contained(small: IntMatrix, big: IntMatrix) -> bool:
    """Q-span inclusion of the column spaces, checked column by column."""
    span = Echelon(QQ, int_transpose(big))
    return all(span.spans(col) for col in int_transpose(small))


def respects_flag(config: Sequence[IntVector], flag: RationalFlag) -> bool:
    """True iff the configuration vectors inside each member span it."""
    for member in flag.members:
        span = Echelon(QQ, int_transpose(member))
        inside = [v for v in config if span.spans(v)]
        if f_rank(QQ, inside) != len(member[0]):
            return False
    return True


def flag_from_members(n: int, members: Iterable[IntMatrix]) -> RationalFlag:
    """Build a flag from arbitrary spanning sets, canonicalizing each
    member to the column HNF of its saturation."""
    canon = [saturation(int_matrix(m)) for m in members]
    canon.sort(key=lambda m: len(m[0]))
    return RationalFlag(n, tuple(canon))


def flag_canonical(flag: RationalFlag) -> RationalFlag:
    return flag_from_members(flag.n, flag.members)


def standard_flag(n: int, dims: Sequence[int]) -> RationalFlag:
    """The coordinate flag: member j is spanned by e_1, ..., e_{dims[j]}."""
    dims = tuple(int(d) for d in dims)
    if any(b <= a for a, b in zip(dims, dims[1:])) or not dims:
        raise ValueError("dims must be strictly increasing and nonempty")
    if dims[0] < 1 or dims[-1] >= n:
        raise ValueError("dims out of range")
    members = []
    for d in dims:
        members.append(tuple(tuple(int(i == j) for j in range(d))
                             for i in range(n)))
    return RationalFlag(n, tuple(members))


def in_parabolic(u: IntMatrix, flag: RationalFlag) -> bool:
    """True iff u fixes every member subspace of the flag."""
    u = int_matrix(u)
    for m in flag.members:
        img = int_matmul(u, m)
        if not _subspace_contained(img, m):
            return False
    return True


class SingleMemberFlag(ValueError):
    """Deleting from a one-member flag leaves no proper flag."""


def subflags_with_signs(flag: RationalFlag) -> list[tuple[RationalFlag, int]]:
    """All one-member deletions with alternating signs: deleting the
    member at position i (in increasing-dimension order) carries sign
    (-1)^i.  Rejects single-member flags, whose deletion would leave the
    improper flag."""
    if len(flag.members) < 2:
        raise SingleMemberFlag("flag has a single proper member")
    out = []
    for i in range(len(flag.members)):
        out.append((flag.delete(i), -1 if i % 2 else 1))
    return out


# ---------------------------------------------------------------------------
# Adapted bases and basis completion
# ---------------------------------------------------------------------------

def complete_saturated(c: IntMatrix) -> IntMatrix:
    """Complete a saturated n x d matrix to a unimodular n x n matrix
    whose first d columns are exactly the columns of c."""
    n = len(c)
    d = len(c[0]) if c else 0
    if d == 0:
        return int_identity(n)
    # U c = H; for a saturated c of rank d, H = [I_d; 0], so c is the
    # first d columns of the unimodular U^-1
    h, u, _ = hnf_transform(c)
    if h[:d] != int_identity(d):
        raise ValueError("matrix is not saturated")
    w = int_inverse(u)
    if abs(int_det(w)) != 1:
        raise CertificateError("completion failed")
    return w


def adapted_basis(flag: RationalFlag) -> IntMatrix:
    """An SL_n(Z) matrix whose first dims[j] columns span member j, for
    every j.  Deterministic in the flag's canonical data."""
    n = flag.n
    cols: tuple[IntVector, ...] = ()
    for m in flag.members:
        d = len(m[0])
        if cols:
            # coordinates of the current columns inside this member
            y_cols = []
            for cvec in cols:
                sol = f_solve(QQ, m, cvec, d)
                y_cols.append(tuple(int(x) for x in sol))
            y = int_transpose(tuple(y_cols))
            w = complete_saturated(y)
            new = int_matmul(m, w)
        else:
            new = m
        cols = int_transpose(new)
    full = complete_saturated(int_transpose(cols))
    if int_det(full) == -1:
        # flipping the last column keeps every member span intact
        fc = [list(col) for col in int_transpose(full)]
        fc[-1] = [-x for x in fc[-1]]
        full = int_transpose(tuple(tuple(col) for col in fc))
    return full


# ---------------------------------------------------------------------------
# The coset space Omega = Gamma \ SL_n(Z)
# ---------------------------------------------------------------------------

Point = tuple[tuple[int, ...], ...]


def _matrix(n: int, entries: dict[tuple[int, int], int]) -> IntMatrix:
    """The identity with the given entries replaced."""
    return tuple(tuple(entries.get((r, s), int(r == s)) for s in range(n))
                 for r in range(n))


def _combination(coords: Sequence[Sequence[int]], col: Sequence[int]):
    """sum_i col[i] coords[i], entry by entry, as an iterator."""
    terms = [map(c.__mul__, xs) for c, xs in zip(col, coords) if c]
    out = terms[0]
    for term in terms[1:]:
        out = map(add, out, term)
    return out


class _Paths(Mapping):
    """A spanning forest of points of Omega in BFS order: each point maps
    to the integral product p of the generators along its tree path, with
    root . p = point for the root of its tree.  A point keeps its parent
    and generator, and p is multiplied out on its first read."""

    def __init__(self, n: int):
        self.identity = int_identity(n)
        self.steps: dict[Point, Optional[tuple[Point, IntMatrix]]] = {}
        self.products: dict[Point, IntMatrix] = {}

    def grow(self, root: Point,
             moves: Sequence[tuple[IntMatrix, Callable[[Point], Point]]]
             ) -> list[Point]:
        """Enter the points reachable from root under the generators, each
        given with its move (`Omega.mover`), and return them in BFS
        order."""
        self.steps[root] = None
        self.products[root] = self.identity
        order = [root]
        for w in order:
            for g, move in moves:
                v = move(w)
                if v not in self.steps:
                    self.steps[v] = (w, g)
                    order.append(v)
        return order

    def __getitem__(self, w: Point) -> IntMatrix:
        chain = []
        while w not in self.products:
            parent, g = self.steps[w]
            chain.append((w, g))
            w = parent
        product = self.products[w]
        for v, g in reversed(chain):
            product = self.products[v] = int_matmul(product, g)
        return product

    def __contains__(self, w) -> bool:
        return w in self.steps

    def __iter__(self):
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)


class Omega:
    """The coset space Gamma \\ SL_n(Z), with SL_n(Z) acting on the right.

    A point is the data of h mod N that Gamma h determines: for Gamma_0(N)
    the bottom row up to a unit (a point of P^{n-1}(Z/N)), for Gamma_1(N)
    the bottom row, for Gamma(N) the whole matrix.  A group of level 1
    (GL_n(Z) included, whose flag orbits are those of SL_n(Z)) has the
    single point ().  An element acts on the points through its move
    (`mover`): it is reduced mod N once, and each point is moved row by
    row.  The base point w0 = Gamma has stabilizer Gamma cap SL_n(Z), and
    `transversal` maps each point w, in BFS order from w0 under the
    signed transpositions and the elementary matrices, to t(w) in
    SL_n(Z) with w0 . t(w) = w, multiplied out when read (`_Paths`).  The
    flags of a type are SL_n(Z)/P(Z), h.F_std <-> h P(Z), so their group
    orbits are the P(Z)-orbits on Omega: a flag with adapted basis b lies
    over w0 . b.
    """

    def __init__(self, group: GroupSpec):
        n = self.n = group.n
        self.level = group.level if group.is_congruence else 1
        self.rows = {"gamma": n}.get(group.family, 1) if self.level > 1 else 0
        # Gamma_0(N): per residue x, its inverse mod N if x is a unit (else
        # 0), and the units u minimizing u x mod N
        self._inverse: list[int] = []
        self._scalers: list[list[int]] = []
        if self.level > 1 and group.family == "gamma0":
            mod = self.level
            units = [u for u in range(1, mod) if gcd(u, mod) == 1]
            self._inverse = [pow(x, -1, mod) if x in units else 0
                             for x in range(mod)]
            self._scalers = [[u for u in units
                              if u * x % mod == gcd(x, mod) % mod]
                             for x in range(mod)]
        self.base = self.point(int_identity(n))
        # the signed transpositions come first, so that an orbit holding
        # a coordinate flag one transposition away, as the cusp 0 of
        # Gamma_0(N) in SL_2(Z), is represented by that flag
        swaps = [_matrix(n, {(i, i + 1): -1, (i + 1, i): 1, (i, i): 0,
                             (i + 1, i + 1): 0}) for i in range(n - 1)]
        self.transversal = _Paths(n)
        self.transversal.grow(self.base, self._moves(
            swaps + [_matrix(n, {(i, j): c}) for i in range(n)
                     for j in range(n) for c in (1, -1) if i != j]))
        self._parabolic: dict[tuple[int, ...], tuple] = {}

    def __len__(self) -> int:
        return len(self.transversal)

    def _normal(self, rows: Point) -> Point:
        """For Gamma_0(N), the least multiple of the row by a unit: the
        row scaled by the inverse of its first nonzero entry when that is
        a unit."""
        if not self._scalers:
            return rows
        mod = self.level
        (row,) = rows
        inverse = self._inverse[next(filter(None, row), 0)]
        if inverse:
            return (tuple([inverse * x % mod for x in row]),)
        units = None
        for x in row:
            if units is None:
                if x:
                    units = self._scalers[x]
            elif len(units) > 1:
                least = min(u * x % mod for u in units)
                units = [u for u in units if u * x % mod == least]
        return (tuple(units[0] * x % mod for x in row),)

    def point(self, h: IntMatrix) -> Point:
        """w0 . h: the bottom rows of h mod N."""
        return self._normal(tuple(tuple(x % self.level for x in row)
                                  for row in h[self.n - self.rows:]))

    def mover(self, h: IntMatrix) -> Callable[[Point], Point]:
        """The map w -> w . h of the points, with h reduced mod N once."""
        mod, normal = self.level, self._normal
        cols = tuple(tuple(x % mod for x in col) for col in zip(*h))
        return lambda w: normal(tuple([tuple([sum(map(mul, row, col)) % mod
                                              for col in cols]) for row in w]))

    def _moves(self, gens: Sequence[IntMatrix]):
        return [(g, self.mover(g)) for g in gens]

    def tables(self, points: Sequence[Point]
               ) -> Callable[[IntMatrix], list[int]]:
        """The move tables of the points listed in this order: h -> the
        list of the positions of w . h, w in points.  h is reduced mod N
        once, and the image rows of all points are combined column by
        column.  An image is found by any of its forms: for Gamma_0(N) a
        point is filed under each unit multiple of its row, so no image is
        normalized."""
        mod, rows = self.level, self.rows
        if not rows:
            return lambda h: [0] * len(points)
        units = [u for u in range(1, mod) if self._inverse[u]] \
            if self._inverse else [1]
        where = {}
        for i, w in enumerate(points):
            for u in units:
                form = tuple(tuple(u * x % mod for x in row) for row in w)
                where[form[0] if rows == 1 else form] = i
        coords = list(zip(*(row for w in points for row in w)))

        def table(h: IntMatrix) -> list[int]:
            images = zip(*(map(mod.__rmod__, _combination(
                coords, [x % mod for x in col])) for col in zip(*h)))
            return list(map(where.__getitem__, images if rows == 1
                            else zip(*[images] * rows)))

        return table

    def act(self, w: Point, h: IntMatrix) -> Point:
        """w . h for one point; `mover` reduces h once for many."""
        return self.mover(h)(w)

    def parabolic_orbits(self, dims: tuple[int, ...]):
        """(roots, orbit, paths) for the orbits on Omega of the stabilizer
        P(Z) of the standard flag of type dims: orbit[w] is the orbit of
        w, roots[k] the root of orbit k, and paths[w] an integral s(w) in
        P(Z) with roots[orbit[w]] . s(w) = w, multiplied out when read.  A
        BFS over the generators of P(Z): e_ij for block(i) <= block(j),
        and the sign changes of the first coordinates of consecutive
        blocks.  Roots are taken in the order of the transversal, so w0
        is the root of orbit 0."""
        if dims not in self._parabolic:
            n = self.n
            block = [sum(1 for d in dims if d <= i) for i in range(n)]
            gens = [_matrix(n, {(i, j): c}) for i in range(n) for j in range(n)
                    for c in (1, -1) if i != j and block[i] <= block[j]]
            gens += [_matrix(n, {(a, a): -1, (b, b): -1})
                     for a, b in zip((0, *dims), dims)]
            moves = self._moves(gens)
            roots, orbit, paths = [], {}, _Paths(n)
            for w in self.transversal:
                if w not in paths:
                    for v in paths.grow(w, moves):
                        orbit[v] = len(roots)
                    roots.append(w)
            self._parabolic[dims] = roots, orbit, paths
        return self._parabolic[dims]


@lru_cache(maxsize=8)
def coset_space(group: GroupSpec) -> Omega:
    """The coset space Gamma \\ SL_n(Z) of the group, kept for the few
    groups used last."""
    return Omega(group)


def check_dimension(flag: RationalFlag, group: GroupSpec):
    """Refuse a flag of another dimension than the group's."""
    if flag.n != group.n:
        raise ValueError(f"flag has n = {flag.n}, the group has n = {group.n}")


# ---------------------------------------------------------------------------
# Flag equivalence and orbit enumeration
# ---------------------------------------------------------------------------

def flag_equivalent(f1: RationalFlag, f2: RationalFlag,
                    group: GroupSpec) -> Optional[IntMatrix]:
    """A witness g in the group with g * f1 = f2, or None.

    With b_i an adapted basis of f_i and w_i = w0 . b_i, the flags are
    equivalent exactly when w_1 and w_2 lie in one P(Z)-orbit of Omega;
    then g = b_2 s(w_2)^-1 s(w_1) b_1^-1, so None is a proof of
    inequivalence.  A flag of another dimension than the group's is
    refused with a ValueError.
    """
    check_dimension(f1, group)
    check_dimension(f2, group)
    if f1.dims != f2.dims:
        return None
    omega = coset_space(group)
    _, orbit, paths = omega.parabolic_orbits(f1.dims)
    b1, b2 = adapted_basis(f1), adapted_basis(f2)
    w1, w2 = omega.point(b1), omega.point(b2)
    if orbit[w1] != orbit[w2]:
        return None
    g = int_matmul(int_matmul(b2, int_inverse(paths[w2])),
                   int_matmul(paths[w1], int_inverse(b1)))
    if not group.contains(g):
        raise CertificateError("flag witness is not in the group")
    if f1.transform(g) != f2:
        raise CertificateError("flag witness does not carry f1 to f2")
    return g


@dataclass(frozen=True)
class FlagOrbitSet:
    n: int
    group: GroupSpec
    type: tuple[int, ...]
    reps: tuple[RationalFlag, ...]
    roots: tuple[Point, ...] = ()  # each rep's P(Z)-orbit root on Omega

    @property
    def count(self) -> int:
        return len(self.reps)


def flag_orbits(group: GroupSpec, dims: Sequence[int]) -> FlagOrbitSet:
    """Representatives of the group-orbits of flags of the given type.

    The orbits are the double cosets Gamma \\ SL_n(Z) / P(Z), that is the
    P(Z)-orbits on Omega; the orbit with root w is represented by
    t(w) . F_std, so the orbit of w0 (the only one at level 1) by the
    standard flag F_std itself.  Member j of t(w) . F_std is spanned by
    the first dims[j] columns of the unimodular t(w), which are saturated,
    so it is their column HNF.
    """
    n = group.n
    dims = tuple(int(d) for d in dims)
    std = standard_flag(n, dims)
    omega = coset_space(group)
    if len(omega) == 1:
        return FlagOrbitSet(n, group, dims, (std,), (omega.base,))
    roots, _, _ = omega.parabolic_orbits(dims)
    pairs = sorted(((RationalFlag(n, tuple(
        hnf(tuple(row[:d] for row in omega.transversal[w])) for d in dims)),
        w) for w in roots), key=lambda pair: pair[0].sort_key())
    return FlagOrbitSet(n, group, dims, tuple(f for f, _ in pairs),
                        tuple(w for _, w in pairs))


def flag_types(n: int, num_members: int) -> list[tuple[int, ...]]:
    """All dimension types of flags with the given total member count
    (proper members = num_members - 1), ordered lexicographically."""
    from itertools import combinations
    k = num_members - 1
    return [tuple(c) for c in combinations(range(1, n), k)]
