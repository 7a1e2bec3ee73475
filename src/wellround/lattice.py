"""Quadratic forms on Z^n and their minimal-vector configurations.

A point of the symmetric space is a rational symmetric positive-definite
Gram matrix up to positive scaling.  This module provides exact
shortest-vector enumeration (Fincke-Pohst driven by the fraction-free
LDL^T factorization, walking integer budgets over half the ellipsoid,
one vector of each pair +-v), the arithmetic minimum
and minimal vectors, well-roundedness, homothety normalization, and
equivalence / stabilizer searches for vector configurations under
GL_n(Z), SL_n(Z) and congruence subgroups.

Squared lengths everywhere: every stored quantity is the value v^T A v,
never a square root, so all arithmetic stays in Q.  A form is the pair
(M, D) with A = M / D, M a symmetric integer matrix and D > 0 reduced
against it, and the exact work on it (values, enumeration, the
positive-definiteness check, scaling and change of basis) is integer
arithmetic on M; Fractions are made only to read or show a form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Optional, Sequence

from .exactla import (
    QQ, CertificateError, Echelon, IntMatrix, IntVector, RatMatrix, f_rank,
    format_rational, int_adjugate, int_det, int_identity, int_ldlt,
    int_matmul, int_matrix, int_matvec, int_transpose, parse_rational,
)

Vector = IntVector
VectorConfig = tuple[IntVector, ...]


# ---------------------------------------------------------------------------
# Vectors and configurations
# ---------------------------------------------------------------------------

def canonical_vector(v: Sequence[int]) -> IntVector:
    """Sign-canonical representative of the pair {v, -v}: first nonzero
    entry positive.  A tuple of ints is taken as it is."""
    if type(v) is not tuple or {*map(type, v)} != {int}:
        v = tuple(map(int, v))
    for x in v:
        if x > 0:
            return v
        if x < 0:
            return tuple(-y for y in v)
    return v


def is_primitive(v: Sequence[int]) -> bool:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1


def canonical_config(vectors: Iterable[Sequence[int]]) -> VectorConfig:
    """Deduplicated, sign-canonical, lexicographically sorted configuration."""
    return tuple(sorted({canonical_vector(v) for v in vectors}))


class _ImageTable(dict):
    """The images under a unimodular u: a vector (a key whose entries are
    integers) maps to the sign-canonical image of u v, a canonical
    configuration to the images of its vectors, sorted (vectors distinct
    up to sign have distinct images, so nothing is deduplicated); each is
    computed on its first read."""

    def __init__(self, u: IntMatrix):
        self.u = u

    def __missing__(self, key):
        if key and type(key[0]) is int:
            image = canonical_vector(int_matvec(self.u, key))
        else:
            image = tuple(sorted(map(self.__getitem__, key)))
        self[key] = image
        return image


@lru_cache(maxsize=2048)
def _image_table(u: IntMatrix) -> _ImageTable:
    """The image table of u, kept for the 2,048 elements used last: more
    than the GL_4 walk builds (267, a stabilizer's generators and the
    elements that locate configurations)."""
    return _ImageTable(u)


def move_config(u: IntMatrix, config: VectorConfig) -> VectorConfig:
    """u.config, for u unimodular and config canonical, from u's table."""
    return _image_table(u)[config]


def move_each(u: IntMatrix, items: Sequence) -> tuple:
    """The images under u of vectors or canonical configurations (the
    members of a chain), in their order, from u's table."""
    return tuple(map(_image_table(u).__getitem__, items))


def config_rank(config: Sequence[Sequence[int]]) -> int:
    return f_rank(QQ, config)


def config_spans(config: Sequence[Sequence[int]], n: int) -> bool:
    return config_rank(config) == n


# ---------------------------------------------------------------------------
# Gram forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramForm:
    """Symmetric positive-definite rational matrix A = numer / denom;
    v -> v^T A v is the squared length of the lattice vector v.

    numer is a symmetric integer matrix and denom > 0, reduced on
    construction so that gcd(denom, all entries) = 1: denom is then the
    lcm of the denominators of A, and equal forms have equal pairs.  Also
    derived on construction: the fraction-free LDL^T factorization `ldl`
    = (rows, minors) of numer (see `int_ldlt`), whose failure is the
    positive-definiteness check."""

    numer: IntMatrix
    denom: int
    ldl: tuple[IntMatrix, IntVector] = field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        numer, denom = self.numer, self.denom
        n = len(numer)
        if n < 1:
            raise ValueError("Gram matrix must have at least one row")
        if any(len(row) != n for row in numer):
            raise ValueError("Gram matrix must be square")
        if denom <= 0:
            raise ValueError("denominator must be positive")
        if any(numer[i][j] != numer[j][i] for i in range(n) for j in range(i)):
            raise ValueError("Gram matrix must be symmetric")
        g = gcd(denom, *(x for row in numer for x in row))
        object.__setattr__(self, "numer",
                           tuple(tuple(x // g for x in row) for row in numer))
        object.__setattr__(self, "denom", denom // g)
        # raises NotPositiveDefinite otherwise
        object.__setattr__(self, "ldl", int_ldlt(self.numer))

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "GramForm":
        rows = [[x if isinstance(x, Fraction) else Fraction(x) for x in row]
                for row in rows]
        den = lcm(*(x.denominator for row in rows for x in row))
        return GramForm(tuple(tuple(x.numerator * (den // x.denominator)
                                    for x in row) for row in rows), den)

    @staticmethod
    def identity(n: int) -> "GramForm":
        return GramForm(int_identity(n), 1)

    @property
    def n(self) -> int:
        return len(self.numer)

    @property
    def matrix(self) -> RatMatrix:
        """A as a matrix of Fractions, built on each read."""
        return RatMatrix(tuple(tuple(Fraction(x, self.denom) for x in row)
                               for row in self.numer))

    def value(self, v: Sequence[int]) -> Fraction:
        """The squared length v^T A v."""
        return self.pairing(v, v)

    def pairing(self, v: Sequence[int], w: Sequence[int]) -> Fraction:
        row = int_matvec(self.numer, w)
        return Fraction(sum(map(mul, v, row)), self.denom)

    def scale(self, c) -> "GramForm":
        c = Fraction(c)
        if c <= 0:
            raise ValueError("scaling must be positive")
        return GramForm(tuple(tuple(c.numerator * x for x in row)
                              for row in self.numer),
                        c.denominator * self.denom)

    def transform(self, u: IntMatrix) -> "GramForm":
        """Change of basis: the form with matrix U^T A U."""
        return GramForm(int_matmul(int_matmul(int_transpose(u), self.numer), u),
                        self.denom)

    def to_json(self) -> dict:
        return {"n": self.n,
                "rows": [[format_rational(Fraction(x, self.denom)) for x in row]
                         for row in self.numer]}

    @staticmethod
    def from_json(data: dict) -> "GramForm":
        rows = [[parse_rational(str(x)) for x in row] for row in data["rows"]]
        form = GramForm.from_rows(rows)
        if form.n != int(data["n"]):
            raise ValueError("dimension mismatch in Gram form JSON")
        return form


@dataclass(frozen=True)
class MinimaResult:
    min_sq: Fraction
    vectors: VectorConfig


# ---------------------------------------------------------------------------
# Exact Fincke-Pohst enumeration
# ---------------------------------------------------------------------------

def _enumerate_values(a: GramForm, bound: Fraction | int) -> list[tuple[IntVector, int]]:
    """All sign-canonical nonzero integer vectors v with v^T A v <= bound
    (an int or a Fraction), each with the integer v^T M v for A = M / D
    (so its value is that over a.denom), sorted.

    Fincke-Pohst on the fraction-free LDL^T of M: level i contributes
    (Delta_{i+1} v_i + N_i)^2 / (Delta_i Delta_{i+1}), so with T the lcm
    of those denominators every contribution times T is an integer and
    the search walks an integer budget, floor(bound D T).  At each level
    the scan starts at the integer nearest the centre -N_i / Delta_{i+1}
    and goes up, then down, each until the contribution exceeds what is
    left; no square roots and no Fractions are needed.

    The walk covers half the ellipsoid, one vector of each pair +-v:
    while every coordinate above level i is 0 the centre there is 0, and
    only v_i >= 0 is scanned.  So each leaf has its last nonzero entry
    positive, and is flipped once by `canonical_vector`."""
    n = a.n
    rows, minors = a.ldl
    if bound <= 0:
        return []
    dens = [p * q for p, q in zip((1,) + minors, minors)]
    t = lcm(*dens)
    weights = [t // x for x in dens]
    budget = bound.numerator * a.denom * t // bound.denominator
    out: list[tuple[IntVector, int]] = []
    v = [0] * n

    def descend(i: int, remaining: int, half: bool):
        # half: every coordinate above level i is 0
        if i < 0:
            if not half:
                out.append((canonical_vector(v), (budget - remaining) // t))
            return
        row = rows[i]
        piv = minors[i]
        w = weights[i]
        s = sum(row[j] * v[j] for j in range(i + 1, n))
        # nearest integer to the centre -s/piv = floor(-s/piv + 1/2)
        m0 = (piv - 2 * s) // (2 * piv)
        m = m0
        while True:
            x = piv * m + s
            cost = w * x * x
            if cost > remaining:
                break
            v[i] = m
            descend(i - 1, remaining - cost, half and m == 0)
            m += 1
        if not half:
            m = m0 - 1
            while True:
                x = piv * m + s
                cost = w * x * x
                if cost > remaining:
                    break
                v[i] = m
                descend(i - 1, remaining - cost, False)
                m -= 1
        v[i] = 0

    descend(n - 1, budget, True)
    out.sort()
    return out


def vectors_below(a: GramForm, bound, raw: bool = False) -> VectorConfig:
    """All +- classes of nonzero vectors with value <= bound (int or Fraction).

    With raw=True, imprimitive vectors are kept; the default keeps only
    primitive vectors (the configuration convention).
    """
    items = _enumerate_values(a, bound)
    if raw:
        return tuple(v for v, _ in items)
    return tuple(v for v, _ in items if is_primitive(v))


def minimal_vectors(a: GramForm) -> MinimaResult:
    """Arithmetic minimum (squared) and the set of minimal vectors."""
    start = Fraction(min(a.numer[i][i] for i in range(a.n)), a.denom)
    items = _enumerate_values(a, start)
    least = min(val for _, val in items)
    vecs = tuple(v for v, val in items if val == least)
    return MinimaResult(Fraction(least, a.denom), vecs)


def is_well_rounded(a: GramForm) -> bool:
    """True iff the minimal vectors span Q^n."""
    return config_spans(minimal_vectors(a).vectors, a.n)


def normalize(a: GramForm) -> GramForm:
    """Rescale within the homothety class so the arithmetic minimum is 1."""
    m = minimal_vectors(a).min_sq
    if m == 1:
        return a
    return a.scale(Fraction(1) / m)


# ---------------------------------------------------------------------------
# Arithmetic groups
# ---------------------------------------------------------------------------

FAMILIES = ("gl", "sl", "gamma0", "gamma1", "gamma")


@dataclass(frozen=True)
class GroupSpec:
    """An arithmetic subgroup of GL_n(Z).

    Families: "gl", "sl" (level 1) and the congruence families "gamma0"
    (bottom row = (0,...,0,*) mod N), "gamma1" (bottom row = (0,...,0,1)
    mod N) and "gamma" (= I mod N), all inside SL_n(Z) for level N > 1.
    """

    n: int
    family: str
    level: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.family in ("gl", "sl") and self.level != 1:
            raise ValueError(f"{self.family} takes level 1")
        if self.n < 2:
            raise ValueError("n must be >= 2")

    @property
    def is_congruence(self) -> bool:
        return self.family in ("gamma0", "gamma1", "gamma") and self.level > 1

    @property
    def dets(self) -> tuple[int, ...]:
        """The determinants of the group's elements."""
        return (1, -1) if self.family == "gl" else (1,)

    def contains(self, u: IntMatrix, det: Optional[int] = None) -> bool:
        """Membership of an integer matrix; ``det``, when the caller has
        it already, is det u.  Integer entries are taken as they are."""
        if {type(x) for row in u for x in row} != {int}:
            u = int_matrix(u)
        if len(u) != self.n or any(len(r) != self.n for r in u):
            return False
        if det is None:
            det = int_det(u)
        if det not in self.dets:
            return False
        if self.level == 1:
            return True
        return self.pattern_holds_mod(u)

    def pattern_holds_mod(self, u: IntMatrix) -> bool:
        """The congruence condition on the reduction mod the level."""
        nn, mod = self.n, self.level
        if self.family == "gamma0":
            return all(u[nn - 1][j] % mod == 0 for j in range(nn - 1))
        if self.family == "gamma1":
            return (all(u[nn - 1][j] % mod == 0 for j in range(nn - 1))
                    and u[nn - 1][nn - 1] % mod == 1 % mod)
        if self.family == "gamma":
            return all(u[i][j] % mod == (1 if i == j else 0) % mod
                       for i in range(nn) for j in range(nn))
        return True

    def to_json(self) -> dict:
        return {"n": self.n, "family": self.family, "level": self.level}

    @staticmethod
    def from_json(data: dict) -> "GroupSpec":
        return GroupSpec(int(data["n"]), str(data["family"]).lower(),
                         int(data.get("level", 1)))


# ---------------------------------------------------------------------------
# Configuration equivalence and stabilizers
# ---------------------------------------------------------------------------

def _char_pairings(config: VectorConfig, n: int) -> tuple[int, IntMatrix]:
    """(det Q, P) for the integral characteristic form Q = sum vv^T of the
    configuration, with P[i][j] = v_i^T adj(Q) v_j.  Any U with
    U(+-S) = +-S' has |det U| = 1 and Q_S' = U Q_S U^T, so det Q and the
    pairings (up to the signs of the vectors) are invariants; det Q != 0
    exactly when S spans Q^n."""
    q = [[0] * n for _ in range(n)]
    for v in config:
        for i in range(n):
            if v[i]:
                for j in range(n):
                    q[i][j] += v[i] * v[j]
    adj = int_adjugate(q)
    rows = [int_matvec(adj, v) for v in config]
    return int_det(q), tuple(tuple(sum(map(mul, row, v)) for v in config)
                             for row in rows)


def _independent_basis(config: VectorConfig, n: int) -> tuple[int, ...]:
    """Indices of a deterministic Q-basis chosen from the configuration:
    each vector that is independent of the ones chosen before it."""
    basis = Echelon(QQ)
    chosen: list[int] = []
    for idx, v in enumerate(config):
        if basis.add(v):
            chosen.append(idx)
            if len(chosen) == n:
                return tuple(chosen)
    raise ValueError("configuration does not span")


def _flag_preserved(u: IntMatrix, flag) -> bool:
    from .flags import in_parabolic
    return in_parabolic(u, flag)


def _image_candidates(dst: VectorConfig) -> list[tuple[int, int]]:
    """The images a basis vector may take, as (index, sign), in the order
    the equivalence search tries them: dst, then -dst."""
    return [(j, 1) for j in range(len(dst))] + \
        [(j, -1) for j in range(len(dst))]


def signed_positions(u: IntMatrix, config: VectorConfig,
                     dst: VectorConfig) -> Optional[tuple[int, ...]]:
    """The images under u of the configuration's vectors as positions
    among `_image_candidates(dst)`: entry i is j if u v_i = dst_j and
    m + j if it is -dst_j, for m = len(dst); None when an image leaves
    +-dst."""
    pos = {v: j for j, v in enumerate(dst)}
    m = len(dst)
    out = []
    for v in config:
        w = int_matvec(u, v)
        j = pos.get(w)
        if j is None:
            j = pos.get(tuple(-x for x in w))
            if j is None:
                return None
            j += m
        out.append(j)
    return tuple(out)


def signed_permutation(u: IntMatrix, config: VectorConfig) -> tuple[int, ...]:
    """u, which fixes +-config, as a signed permutation of the
    configuration's vectors (`signed_positions` on the configuration
    itself).  An element that does not fix the configuration is
    refused."""
    perm = signed_positions(u, config, config)
    if perm is None:
        raise CertificateError("a stabilizer element moves the cell")
    return perm


class _Action:
    """The stabilizer S of a spanning configuration, its elements `moves`
    in order, acting on the 2m signed vectors of the configuration, v_j
    at j and -v_j at m + j: each element's signed permutation
    (`signed_permutation`) doubled, which determines it, so that a product
    is a composition.  `gens` are the positions of elements that generate
    S, each outside the subgroup of those before; a list that is not a
    group is refused.  `steps` writes every other element as a generator
    times an element met before it, breadth first from the identity."""

    def __init__(self, moves: Sequence[IntMatrix],
                 perms: Sequence[Sequence[int]]):
        m = len(perms[0])
        self.moves = moves
        self.m = m
        self.doubled = [(*p, *((j + m) % (2 * m) for j in p)) for p in perms]
        reached = {tuple(range(2 * m))}
        self.gens: list[int] = []
        # (x, e, i): the element x is generator i composed after e
        self.steps: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
        for k, perm in enumerate(self.doubled):
            if perm in reached:
                continue
            self.gens.append(k)
            new = list(reached)
            while new:
                found = []
                for e in new:
                    for i, g in enumerate(self.gens):
                        x = tuple(map(self.doubled[g].__getitem__, e))
                        if x not in reached:
                            reached.add(x)
                            found.append(x)
                            self.steps.append((x, e, i))
                new = found
        if len(reached) != len(set(self.doubled)):
            raise CertificateError("the stabilizer is not a group")

    def generators(self) -> list[IntMatrix]:
        return [self.moves[g] for g in self.gens]

    def compose(self, gen_perms: Sequence[Sequence[int]],
                count: int) -> list[list[int]]:
        """Each element's permutation of `count` items, in the order of
        the elements, composed along `steps` from the generators'
        permutations of them, given in the order of `gens`."""
        table = {tuple(range(2 * self.m)): list(range(count))}
        for x, e, i in self.steps:
            table[x] = list(map(gen_perms[i].__getitem__, table[e]))
        return [table[perm] for perm in self.doubled]

    def permutations(self, items: Sequence, what: str) -> list[list[int]]:
        """Each element's permutation of the items, vectors or canonical
        configurations that S permutes, by position, in the order of the
        elements.  Only the generators move the items by matrix
        (`move_each`, checked to stay among them); each other element's
        permutation is composed from theirs."""
        pos = {x: i for i, x in enumerate(items)}
        steps = []
        for g in self.gens:
            p = [pos.get(y) for y in move_each(self.moves[g], items)]
            if None in p:
                raise CertificateError(
                    f"the stabilizer does not permute the {what}")
            steps.append(p)
        return self.compose(steps, len(items))


def _closure(vectors: Sequence[IntVector],
             moves: Sequence[IntMatrix]) -> list[IntVector]:
    """The vectors closed up under the moves, sorted."""
    out = set(vectors)
    new = out
    while new:
        new = {w for s in moves for w in move_each(s, new)} - out
        out |= new
    return sorted(out)


def _first_element(table: dict[IntMatrix, tuple[int, ...]],
                   codes: Sequence[int], m: int) -> IntMatrix:
    """Of the stabilizer of a configuration dst of m vectors, given as its
    table t -> `signed_permutation(t, dst)`, the element t that moves the
    signed positions `codes` (among `_image_candidates(dst)`) to the least
    tuple.  With codes the images of src's basis (`_independent_basis`)
    under some w with w(+-src) = +-dst, t w is the element of all those
    that `_equiv_search` meets first.  Each t moves the codes by lookup,
    one at a time, and only the elements giving the least position so far
    are kept: a basis's images determine t."""
    items = list(table.items())
    for c in codes:
        # t(-v_j) is -(t v_j): the position shifts by m, modulo 2m
        j, shift = c % m, c - c % m
        least = min((p[j] + shift) % (2 * m) for _, p in items)
        items = [(t, p) for t, p in items
                 if (p[j] + shift) % (2 * m) == least]
    return items[0][0]


def _equiv_search(src: VectorConfig, dst: VectorConfig, group: GroupSpec,
                  flag=None, find_all: bool = False
                  ) -> list[tuple[IntMatrix, tuple[int, ...]]]:
    """Backtracking search for U in the group with U(+-src) = +-dst,
    optionally preserving a flag.  Complete by exhaustion over images of
    a basis of src, in exact integer arithmetic.

    Invariant: with Q = sum vv^T the characteristic form of a
    configuration, an equivalence has Q_dst = U Q_src U^T and
    |det U| = 1, so det Q_src = det Q_dst, and the pairings
    v^T adj(Q) w (= det Q times the pairings through Q^-1) are carried
    from src to dst, up to the sign chosen for each image.  Unequal
    determinants or norm multisets reject at once; inside the search
    each candidate image must match, by lookup in the two pairing
    tables, the norm of its basis vector and the pairings with the
    images already chosen.  A leaf forms U = W adj(B) / det B from the
    basis B and its images W and keeps it only if it is integral,
    unimodular and in the group (tested first, by its determinant),
    maps src onto dst and preserves the flag.  The leaf maps every vector
    of src to find that, and each element is returned with those images,
    its `signed_positions(U, src, dst)`.

    With find_all the search runs over +-classes: -U maps +-src onto
    +-dst and keeps a flag exactly when U does, so the first basis
    vector maps into +dst only, and each leaf gives U and -U, each kept
    if it lies in the group.  For SL_n with n odd one of the two has det
    -1, and it is not tested.  Without find_all the search meets the
    leaves in the order above, the first basis vector into dst and then
    -dst, and returns the first witness."""
    n = group.n
    if len(src) != len(dst):
        return []
    if any(len(v) != n for v in src + dst):
        raise ValueError("configurations must span Q^n")
    det_s, ps = _char_pairings(src, n)
    det_d, pd = (det_s, ps) if dst == src else _char_pairings(dst, n)
    if not (det_s and det_d):
        raise ValueError("configurations must span Q^n")
    if det_s != det_d or (sorted(ps[i][i] for i in range(len(src)))
                          != sorted(pd[j][j] for j in range(len(dst)))):
        return []

    basis_idx = _independent_basis(src, n)
    bmat = int_transpose(tuple(src[i] for i in basis_idx))
    det_b = int_det(bmat)
    adj_b = int_adjugate(bmat)
    candidates = _image_candidates(dst)
    # per depth: the candidates with the right norm, and the pairings of
    # that basis vector with the earlier ones
    level_cands = []
    level_pairs = []
    for depth, b in enumerate(basis_idx):
        # over +-classes the first basis vector maps into +dst only
        signs = (1,) if find_all and depth == 0 else (1, -1)
        level_cands.append([(j, s) for j, s in candidates
                            if pd[j][j] == ps[b][b] and s in signs])
        level_pairs.append([ps[basis_idx[k]][b] for k in range(depth)])
    # per later depth: for each image of the first basis vector, the
    # candidates whose pairing with it is right
    paired = [{(j0, s0): [(j, s) for j, s in level_cands[depth]
                          if s0 * s * pd[j][j0] == level_pairs[depth][0]]
               for j0, s0 in level_cands[0]} for depth in range(1, n)]
    # W adj(B) is the sum over the depths of each image times its row of
    # adj(B): per depth and candidate, that product, its rows laid end to
    # end, which a path of the search adds up as it goes
    outer = [{(j, s): [s * x * y for x in dst[j] for y in adj_b[depth]]
              for j, s in cands} for depth, cands in enumerate(level_cands)]
    m = len(dst)
    # the vectors outside the basis, which a leaf maps by matrix
    rest = [i for i in range(m) if i not in basis_idx]
    dets = group.dets
    # det(-U) = (-1)^n det U
    flip = (-1) ** n

    results: list[tuple[IntMatrix, tuple[int, ...]]] = []
    images: list[tuple[int, int]] = []

    def accept(w_adj: list[int]):
        """Append the leaf's elements to the results, given W adj(B)."""
        if any(x % det_b for x in w_adj):
            return
        ui = tuple(tuple(x // det_b for x in w_adj[r:r + n])
                   for r in range(0, n * n, n))
        det_u = int_det(ui)
        if abs(det_u) != 1:
            return
        kept = []
        if det_u in dets and group.contains(ui, det_u):
            kept.append(ui)
        if find_all and flip * det_u in dets:
            neg = tuple(tuple(-x for x in row) for row in ui)
            if group.contains(neg, flip * det_u):
                kept.append(neg)
        if not kept:
            return
        # U is injective on +-classes, so src lands on all of +-dst; the
        # basis lands where the leaf put it
        moved = signed_positions(ui, [src[i] for i in rest], dst)
        if moved is None:
            return
        if flag is not None and not _flag_preserved(ui, flag):
            return
        perm = [0] * m
        for b, (j, s) in zip(basis_idx, images):
            perm[b] = j if s > 0 else j + m
        for i, j in zip(rest, moved):
            perm[i] = j
        shifted = tuple((j + m) % (2 * m) for j in perm)
        results.extend((u, tuple(perm) if u is ui else shifted) for u in kept)

    def backtrack(depth: int, w_adj: list[int]):
        if results and not find_all:
            return
        if depth == n:
            accept(w_adj)
            return
        targets = level_pairs[depth][1:]
        for j, s in paired[depth - 1][images[0]] if depth else level_cands[0]:
            row = pd[j]
            if any(sk * s * row[jk] != t
                   for (jk, sk), t in zip(images[1:], targets)):
                continue
            images.append((j, s))
            backtrack(depth + 1, list(map(add, w_adj, outer[depth][j, s])))
            images.pop()
            if results and not find_all:
                return

    backtrack(0, [0] * (n * n))
    return results


def config_equiv(src: VectorConfig, dst: VectorConfig, group: GroupSpec,
                 flag=None) -> Optional[IntMatrix]:
    """A witness U in the group with U(+-src) = +-dst, preserving `flag`
    when given; None means provably inequivalent (the search is complete)."""
    src = canonical_config(src)
    dst = canonical_config(dst)
    found = _equiv_search(src, dst, group, flag=flag, find_all=False)
    return found[0][0] if found else None


@dataclass(frozen=True)
class StabilizerResult:
    """The stabilizer's elements, sorted, and, when the search made them,
    each one's `signed_permutation` of the configuration, in the same
    order: the leaf that kept an element has mapped every vector."""

    elements: tuple[IntMatrix, ...]
    permutations: Optional[tuple[tuple[int, ...], ...]] = field(
        default=None, compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)


def config_stabilizer(config: VectorConfig, group: GroupSpec,
                      flag=None) -> StabilizerResult:
    """The finite group {U in the group : U(+-config) = +-config},
    optionally intersected with a flag stabilizer."""
    config = canonical_config(config)
    found = sorted(_equiv_search(config, config, group, flag=flag,
                                 find_all=True))
    return StabilizerResult(tuple(u for u, _ in found),
                            tuple(perm for _, perm in found))


# ---------------------------------------------------------------------------
# JSON helpers for configurations
# ---------------------------------------------------------------------------

def config_to_json(config: VectorConfig) -> list[list[int]]:
    return [list(v) for v in config]


def config_from_json(data: Sequence[Sequence[int]]) -> VectorConfig:
    return canonical_config(tuple(tuple(int(x) for x in v) for v in data))
