"""Flag orbits and flag equivalence by a scan of finite groups mod N, as
`flags` computed them before it read the coset space Gamma \\ SL_n(Z):
the image of the group in SL_n(Z/N) and of the standard parabolic are
enumerated by a BFS closure, the double cosets are labeled by a minimum
over the parabolic image, and witnesses are lifted to SL_n(Z) through an
elementary-matrix factorization.  Kept only here, as the oracle that the
tests compare the coset-space answers with."""

from functools import lru_cache
from math import gcd
from typing import Optional, Sequence

from wellround.exactla import (
    CertificateError, IntMatrix, int_adjugate, int_det, int_identity,
    int_inverse, int_matmul,
)
from wellround.flags import (
    FlagOrbitSet, RationalFlag, adapted_basis, flag_canonical,
    flag_from_members, standard_flag,
)
from wellround.lattice import GroupSpec

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


def scan_flag_equivalent(f1: RationalFlag, f2: RationalFlag,
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


def scan_flag_orbits(group: GroupSpec, dims: Sequence[int]) -> FlagOrbitSet:
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


def scan_index(group: GroupSpec) -> int:
    """[SL_n(Z) : Gamma] as |SL_n(Z/N)| over the order of the image of
    the group in SL_n(Z/N)."""
    n, level = group.n, group.level
    if not group.is_congruence:
        return 1
    order = level ** (n * n - 1)
    for p in _prime_factors(level):
        for k in range(2, n + 1):
            order = order * (p ** k - 1) // p ** k
    return order // len(congruence_image_elements(group))
