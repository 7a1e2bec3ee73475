"""Rational flags, their canonical forms, and orbit enumeration under
arithmetic groups.

A flag is a strictly nested chain of nonzero proper Q-subspaces of Q^n,
stored as saturated sublattice bases in column Hermite normal form (the
full space is an implicit final member).  Flags of a fixed dimension
type form a single GL_n(Z)/SL_n(Z)-orbit; for a congruence subgroup of
level N the orbits are computed exactly as double cosets
Gamma_mod \\ SL_n(Z/N) / P_mod, where P_mod is the image mod N of the
integral stabilizer of the standard flag.  Witnesses are produced by
lifting SL_n(Z/N) elements to SL_n(Z) through an elementary-matrix
factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Optional, Sequence

from .exactla import (
    QQ, CertificateError, Echelon, IntMatrix, IntVector, f_rank, f_solve,
    hnf_transform, int_adjugate, int_det, int_identity, int_inverse,
    int_matmul, int_matrix, int_transpose, saturation,
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
            if saturation(m) != m:
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
# Matrices over Z/N
# ---------------------------------------------------------------------------

ModMatrix = tuple[tuple[int, ...], ...]


def mod_mat(m: IntMatrix, n_mod: int) -> ModMatrix:
    return tuple(tuple(x % n_mod for x in row) for row in m)


def mod_mul(a: ModMatrix, b: ModMatrix, n_mod: int) -> ModMatrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % n_mod
                       for col in bt) for row in a)


def mod_inverse(a: ModMatrix, n_mod: int) -> ModMatrix:
    """Inverse mod N of a matrix with det a unit (via integer adjugate)."""
    dinv = pow(int_det(a) % n_mod, -1, n_mod)
    return tuple(tuple((x * dinv) % n_mod for x in row)
                 for row in int_adjugate(a))


def _elementary(n: int, i: int, j: int, c: int) -> IntMatrix:
    rows = [[int(r == s) for s in range(n)] for r in range(n)]
    rows[i][j] = c
    return tuple(tuple(r) for r in rows)


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def sl_lift(mbar: ModMatrix, n_mod: int) -> IntMatrix:
    """Lift an SL_k(Z/N) matrix to SL_k(Z) via elementary factorization.

    The lift reduces to the input mod N and has determinant exactly 1.
    """
    k = len(mbar)
    if int_det(mbar) % n_mod != 1 % n_mod:
        raise ValueError("matrix is not in SL mod N")
    a = [[x % n_mod for x in row] for row in mbar]
    ops: list[tuple[int, int, int]] = []  # (i, j, c): row_i += c * row_j
    primes = _prime_factors(n_mod)

    def apply_op(i, j, c):
        c %= n_mod
        if c == 0:
            return
        a[i] = [(x + c * y) % n_mod for x, y in zip(a[i], a[j])]
        ops.append((i, j, c))

    for t in range(k):
        if gcd(a[t][t], n_mod) != 1:
            # choose rows below t contributing a unit pivot, prime by prime
            coeff = {}
            for p in primes:
                if a[t][t] % p != 0:
                    continue
                src = next((i for i in range(t + 1, k) if a[i][t] % p != 0),
                           None)
                if src is None:
                    raise CertificateError("column not unimodular")
                coeff.setdefault(src, []).append(p)
            for src, ps in sorted(coeff.items()):
                # c = 1 mod the assigned primes, 0 mod the other prime factors
                c = 1
                modulus = 1
                for p in primes:
                    want = 1 if p in ps else 0
                    # CRT combine
                    while c % p != want:
                        c += modulus
                    modulus *= p
                apply_op(t, src, c)
        inv = pow(a[t][t], -1, n_mod)
        for i in range(t + 1, k):
            if a[i][t] % n_mod:
                apply_op(i, t, (-a[i][t] * inv) % n_mod)
    for t in reversed(range(k)):
        inv = pow(a[t][t], -1, n_mod)
        for i in range(t):
            if a[i][t] % n_mod:
                apply_op(i, t, (-a[i][t] * inv) % n_mod)
    # diagonal of units with product 1: six row operations (Whitehead's
    # lemma) turn each block diag(u, w) into diag(1, uw), so the last
    # entry ends up 1
    for t in range(k - 1):
        u = a[t][t]
        if u == 1:
            continue
        uinv = pow(u, -1, n_mod)
        apply_op(t + 1, t, uinv)            # rows (u,0),(1,w)
        apply_op(t, t + 1, (-u) % n_mod)    # rows (0,-uw),(1,w)
        apply_op(t + 1, t, uinv)            # rows (0,-uw),(1,0)
        apply_op(t, t + 1, 1)               # rows (1,-uw),(1,0)
        apply_op(t + 1, t, n_mod - 1)       # rows (1,-uw),(0,uw)
        apply_op(t, t + 1, 1)               # rows (1,0),(0,uw)
    if any(a[i][j] != int(i == j) % n_mod for i in range(k) for j in range(k)):
        raise CertificateError("reduction to the identity mod N failed")
    # E_r ... E_1 mbar = I, so mbar = E_1^{-1} ... E_r^{-1} mod N
    lift = int_identity(k)
    for (i, j, c) in ops:
        ci = c if c <= n_mod // 2 else c - n_mod
        lift = int_matmul(lift, _elementary(k, i, j, -ci))
    if int_det(lift) != 1 or mod_mat(lift, n_mod) != mod_mat(mbar, n_mod):
        raise CertificateError("SL lift does not reduce to its residue class")
    return lift


# ---------------------------------------------------------------------------
# The standard parabolic image mod N and congruence-group images
# ---------------------------------------------------------------------------

def _blocks_of(n: int, dims: Sequence[int]) -> list[int]:
    """block index of each coordinate for proper dims d_1 < ... < d_r < n."""
    out = []
    b = 0
    bounds = list(dims) + [n]
    for i in range(n):
        while i >= bounds[b]:
            b += 1
        out.append(b)
    return out


def parabolic_image_membership(n: int, dims: Sequence[int], n_mod: int):
    """Membership test for the image mod N of the integral stabilizer of
    the standard flag of the given type: block upper-triangular with
    every diagonal block of determinant +-1 mod N and product +1."""
    blocks = _blocks_of(n, dims)
    bounds = [0] + list(dims) + [n]
    one = 1 % n_mod
    minus = (-1) % n_mod

    def member(p: ModMatrix) -> bool:
        for i in range(n):
            for j in range(n):
                if blocks[i] > blocks[j] and p[i][j] % n_mod != 0:
                    return False
        prod = 1
        for b in range(len(bounds) - 1):
            lo, hi = bounds[b], bounds[b + 1]
            block = tuple(tuple(p[i][j] for j in range(lo, hi))
                          for i in range(lo, hi))
            d = int_det(block) % n_mod
            if d not in (one, minus):
                return False
            prod = (prod * d) % n_mod
        return prod == one

    return member


@lru_cache(maxsize=None)
def parabolic_image_elements(n: int, dims: tuple[int, ...], n_mod: int) -> tuple[ModMatrix, ...]:
    """BFS closure of the generators of the standard-flag stabilizer
    image mod N."""
    blocks = _blocks_of(n, dims)
    bounds = [0] + list(dims) + [n]
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j and blocks[i] <= blocks[j]:
                gens.append(mod_mat(_elementary(n, i, j, 1), n_mod))
    for b in range(len(bounds) - 2):
        d = [[int(i == j) for j in range(n)] for i in range(n)]
        d[bounds[b]][bounds[b]] = (-1) % n_mod
        d[bounds[b + 1]][bounds[b + 1]] = (-1) % n_mod
        gens.append(tuple(tuple(r) for r in d))
    return _closure(gens, n_mod)


def _closure(gens: Sequence[ModMatrix], n_mod: int) -> tuple[ModMatrix, ...]:
    n = len(gens[0]) if gens else 0
    ident = mod_mat(int_identity(n), n_mod)
    seen = {ident}
    queue = [ident]
    while queue:
        x = queue.pop()
        for g in gens:
            y = mod_mul(x, g, n_mod)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return tuple(sorted(seen))


def congruence_image_generators(group: GroupSpec) -> list[ModMatrix]:
    """Generators mod N of the image of a congruence family in SL_n(Z/N)."""
    n, n_mod = group.n, group.level
    gens: list[ModMatrix] = []
    if group.family == "gamma":
        return gens
    allowed = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if i == n - 1 and j < n - 1:
                continue  # bottom-row positions are frozen mod N
            allowed.append((i, j))
    for (i, j) in allowed:
        gens.append(mod_mat(_elementary(n, i, j, 1), n_mod))
    if group.family == "gamma0":
        units = [u for u in range(1, n_mod) if gcd(u, n_mod) == 1]
        for u in units:
            d = [[int(i == j) for j in range(n)] for i in range(n)]
            d[0][0] = u
            d[n - 1][n - 1] = pow(u, -1, n_mod)
            gens.append(tuple(tuple(r) for r in d))
    elif group.family == "gamma1" and n >= 3:
        units = [u for u in range(1, n_mod) if gcd(u, n_mod) == 1]
        for u in units:
            d = [[int(i == j) for j in range(n)] for i in range(n)]
            d[0][0] = u
            d[1][1] = pow(u, -1, n_mod)
            gens.append(tuple(tuple(r) for r in d))
    return gens


@lru_cache(maxsize=None)
def congruence_image_elements(group: GroupSpec) -> tuple[ModMatrix, ...]:
    gens = congruence_image_generators(group)
    if not gens:
        return (mod_mat(int_identity(group.n), group.level),)
    return _closure(gens, group.level)


# ---------------------------------------------------------------------------
# Flag equivalence and orbit enumeration
# ---------------------------------------------------------------------------

def _lift_parabolic(pbar: ModMatrix, n: int, dims: Sequence[int],
                    n_mod: int) -> IntMatrix:
    """Integral lift of an element of the parabolic image: block upper
    triangular, determinant 1, reducing to pbar mod N."""
    bounds = [0] + list(dims) + [n]
    cols = [[0] * n for _ in range(n)]
    lift = [[0] * n for _ in range(n)]
    minus = (-1) % n_mod
    for b in range(len(bounds) - 1):
        lo, hi = bounds[b], bounds[b + 1]
        block = tuple(tuple(pbar[i][j] % n_mod for j in range(lo, hi))
                      for i in range(lo, hi))
        d = int_det(block) % n_mod
        sign = 1 if d == 1 % n_mod else -1
        if sign == -1 and minus == 1 % n_mod:
            sign = 1  # N <= 2: signs coincide
        k = hi - lo
        dmat = tuple(tuple((sign if (r == s == 0) else int(r == s))
                           for s in range(k)) for r in range(k))
        sbar = mod_mul(mod_inverse(mod_mat(dmat, n_mod), n_mod), block, n_mod)
        sblock = int_matmul(dmat, sl_lift(sbar, n_mod))
        for r in range(k):
            for s in range(k):
                lift[lo + r][lo + s] = sblock[r][s]
    for i in range(n):
        for j in range(n):
            bi = next(b for b in range(len(bounds) - 1)
                      if bounds[b] <= i < bounds[b + 1])
            bj = next(b for b in range(len(bounds) - 1)
                      if bounds[b] <= j < bounds[b + 1])
            if bi < bj:
                c = pbar[i][j] % n_mod
                lift[i][j] = c if c <= n_mod // 2 else c - n_mod
    out = tuple(tuple(r) for r in lift)
    if int_det(out) != 1 or mod_mat(out, n_mod) != mod_mat(pbar, n_mod):
        raise CertificateError("parabolic lift does not reduce to its residue class")
    return out


def flag_equivalent(f1: RationalFlag, f2: RationalFlag,
                    group: GroupSpec) -> Optional[IntMatrix]:
    """A witness g in the group with g * f1 = f2, or None.

    At level 1 flags of equal type are always equivalent (Hermite-basis
    transitivity).  At level N the search runs over the finite image of
    the group in SL_n(Z/N), so None is a proof of inequivalence.
    """
    if f1.n != f2.n or f1.dims != f2.dims:
        return None
    n = group.n
    b1 = adapted_basis(f1)
    b2 = adapted_basis(f2)
    if not group.is_congruence:
        g = int_matmul(b2, int_inverse(b1))
        # det(b2)/det(b1) = +1 by construction, so g lies in SL already
        if not group.contains(g):
            raise CertificateError("flag witness is not in the group")
        return g
    n_mod = group.level
    dims = f1.dims
    member = parabolic_image_membership(n, dims, n_mod)
    b1m = mod_mat(b1, n_mod)
    b2m_inv = mod_inverse(mod_mat(b2, n_mod), n_mod)
    for gbar in congruence_image_elements(group):
        pbar = mod_mul(mod_mul(b2m_inv, gbar, n_mod), b1m, n_mod)
        if member(pbar):
            p = _lift_parabolic(pbar, n, dims, n_mod)
            g = int_matmul(int_matmul(b2, p), int_inverse(b1))
            if not group.contains(g):
                raise CertificateError("flag witness is not in the group")
            if f1.transform(g) != flag_canonical(f2):
                raise CertificateError("flag witness does not carry f1 to f2")
            return g
    return None


# flag_orbits caches the images of each row of a coset label under the
# parabolic image; it stops adding rows at this many cached images (about
# 64 bytes each), so large levels stay bounded in memory
_ROW_IMAGES_MAX = 1 << 20


@dataclass(frozen=True)
class FlagOrbitSet:
    n: int
    group: GroupSpec
    type: tuple[int, ...]
    reps: tuple[RationalFlag, ...]

    @property
    def count(self) -> int:
        return len(self.reps)


def flag_orbits(group: GroupSpec, dims: Sequence[int]) -> FlagOrbitSet:
    """Representatives of the group-orbits of flags of the given type.

    Level 1: one orbit (the standard flag).  Level N: orbits correspond
    to double cosets of the group image and the standard-parabolic image
    in SL_n(Z/N); each is enumerated over cosets of the parabolic image
    and lifted to a rational representative.
    """
    n = group.n
    dims = tuple(int(d) for d in dims)
    std = standard_flag(n, dims)
    if not group.is_congruence:
        return FlagOrbitSet(n, group, dims, (std,))
    n_mod = group.level
    pbar_cols = [tuple(zip(*p))
                 for p in parabolic_image_elements(n, dims, n_mod)]
    row_images: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def canon(m: ModMatrix) -> ModMatrix:
        """min over the parabolic image of m p.  Row i of m p is row i of
        m times p, so each distinct row's images are computed once."""
        rows = []
        for row in m:
            images = row_images.get(row)
            if images is None:
                images = [tuple(sum(x * y for x, y in zip(row, col)) % n_mod
                                for col in cols)
                          for cols in pbar_cols]
                if len(row_images) * len(pbar_cols) < _ROW_IMAGES_MAX:
                    row_images[row] = images
            rows.append(images)
        return min(zip(*rows))

    # BFS of the coset space SL_n(Z/N) / P_mod under elementary generators
    gens = [mod_mat(_elementary(n, i, j, 1), n_mod)
            for i in range(n) for j in range(n) if i != j]
    start = canon(mod_mat(int_identity(n), n_mod))
    cosets = {start}
    queue = [start]
    while queue:
        x = queue.pop()
        for g in gens:
            y = canon(mod_mul(g, x, n_mod))
            if y not in cosets:
                cosets.add(y)
                queue.append(y)
    # group orbits on the coset space
    ggens = congruence_image_generators(group)
    unseen = set(cosets)
    reps = []
    for label in sorted(unseen):
        if label not in unseen:
            continue
        orbit = {label}
        queue = [label]
        while queue:
            x = queue.pop()
            for g in ggens:
                y = canon(mod_mul(g, x, n_mod))
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        unseen -= orbit
        reps.append(min(orbit))
    flags = []
    for label in reps:
        lifted = sl_lift(label, n_mod)
        members = [tuple(tuple(row[:d]) for row in lifted) for d in dims]
        flags.append(flag_from_members(n, members))
    flags.sort(key=lambda f: f.sort_key())
    return FlagOrbitSet(n, group, dims, tuple(flags))


def flag_types(n: int, num_members: int) -> list[tuple[int, ...]]:
    """All dimension types of flags with the given total member count
    (proper members = num_members - 1), ordered lexicographically."""
    from itertools import combinations
    k = num_members - 1
    return [tuple(c) for c in combinations(range(1, n), k)]
