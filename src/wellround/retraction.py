"""The well-rounded retraction, flag splittings and orthant bounds.

A positive-definite form is retracted onto the well-rounded locus by
repeatedly shrinking the directions orthogonal to the span of its
minimal vectors until new vectors reach the arithmetic minimum.  The
shrink factor at each stage is mu^2 = (1 - p)/q for the critical lattice
vector with parallel/perpendicular squared parts (p, q), so the whole
computation stays in Q even though mu itself is irrational.

Everything is computed from one integer split per member: for A = M/D
with M integral and a member B, let G = B^T M B and E = D det G.  The
A-orthogonal projector P onto span B has A P = S / E with the integer
matrix S = (MB) adj(G) (MB)^T, so w has the squared parallel and
perpendicular parts p = P / E and q = Q / E, with the two integer
quadratic forms P = w^T S w and Q = g w^T M w - P (g = det G).
Candidates are compared by integer numerators over E, a stage form is
mu^2 A + (1 - mu^2) S / E, and block scalings telescope
pi_j^T A pi_j = A P_j - A P_{j-1}.  Every form built here, stage forms
and path points included, is handed to `GramForm` as an integer matrix
and one denominator; Fractions are made only for the answer (stage
factors, and the projectors of `flag_split`).

Block scalings along a flag realize the geodesic action on Gram
matrices; the scaling vector stores the squared block factors a_j^2,
with rho-coordinates (block ratios) available by conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import Optional, Sequence

from .exactla import (
    CertificateError, IntMatrix, RatMatrix, int_adjugate, int_det,
    int_identity, int_matmul, int_transpose, saturation,
)
from .flags import (
    RationalFlag, _subspace_contained, complete_saturated, respects_flag,
)
from .lattice import (
    GramForm, MinimaResult, canonical_config, config_spans, minimal_vectors,
    normalize, vectors_below,
)


class AlreadyFull(ValueError):
    """The sublattice already spans Q^n: no stopping scale exists."""


def _qf(m: IntMatrix, v: Sequence[int]) -> int:
    """v^T m v for an integer matrix m."""
    return sum(x * sum(map(mul, row, v)) for x, row in zip(v, m) if x)


class _Split:
    """The A-orthogonal split along the span of a member B, for A = M/D
    (see the module docstring): mbt = (MB)^T, gram = G = B^T M B,
    adj = adj(G), g = det G, e = E = D g and s = S, with A P = S / E."""

    def __init__(self, a: GramForm, member: IntMatrix):
        self.m = a.numer
        self.member = member
        mb = int_matmul(a.numer, member)
        self.mbt = int_transpose(mb)
        self.gram = int_matmul(int_transpose(member), mb)
        self.adj = int_adjugate(self.gram)
        self.g = int_det(self.gram)
        self.e = a.denom * self.g
        self.s = int_matmul(int_matmul(mb, self.adj), self.mbt)

    def perp(self) -> IntMatrix:
        """g M - S: E times the form A (I - P) on the perpendicular parts."""
        return tuple(tuple(self.g * x - y for x, y in zip(rm, rs))
                     for rm, rs in zip(self.m, self.s))

    def perp_gram(self, vectors: Sequence[Sequence[int]]) -> IntMatrix:
        """E times the Gram matrix, under A, of the perpendicular parts of
        the vectors: C (g M - S) C^T for the matrix C with these rows."""
        return int_matmul(int_matmul(vectors, self.perp()),
                          int_transpose(vectors))

    def projector(self) -> tuple[IntMatrix, int]:
        """(N, g) with P = N / g: N = B adj(G) (MB)^T and g = det G."""
        return int_matmul(int_matmul(self.member, self.adj), self.mbt), self.g


@dataclass(frozen=True)
class FlagSplitting:
    """A-orthogonal block projectors pi_j along a flag: sum pi_j = I and
    the blocks pi_j^T A pi_j reconstruct A."""

    base: GramForm
    flag: RationalFlag
    projectors: tuple[RatMatrix, ...]

    @property
    def num_blocks(self) -> int:
        return len(self.projectors)


def flag_split(a: GramForm, flag: RationalFlag) -> FlagSplitting:
    """The blocks pi_j = P_j - P_{j-1} (P_0 = 0, P_l = I), each difference
    taken in integers over the lcm of the two projectors' denominators."""
    if flag.n != a.n:
        raise ValueError("flag dimension mismatch")
    n = a.n
    nested = [_Split(a, m).projector() for m in flag.members]
    nested.append((int_identity(n), 1))
    projectors = []
    prev, prev_den = ((0,) * n,) * n, 1
    for num, den in nested:
        common = lcm(den, prev_den)
        f, f_prev = common // den, common // prev_den
        projectors.append(RatMatrix(tuple(
            tuple(Fraction(f * x - f_prev * y, common) for x, y in zip(r, rp))
            for r, rp in zip(num, prev))))
        prev, prev_den = num, den
    return FlagSplitting(a, flag, tuple(projectors))


@dataclass(frozen=True)
class ScalingVector:
    """Squared block factors (s_1^2, ..., s_l^2), normalized s_1^2 = 1."""

    s_sq: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.s_sq or any(x <= 0 for x in self.s_sq):
            raise ValueError("block factors must be positive")
        if self.s_sq[0] != 1:
            raise ValueError("first block factor must be 1")

    @staticmethod
    def of(values: Sequence) -> "ScalingVector":
        return ScalingVector(tuple(Fraction(x) for x in values))

    @staticmethod
    def from_rho_sq(rho_sq: Sequence) -> "ScalingVector":
        """Convert ratio coordinates rho_j = s_j / s_{j+1} (squared) into
        block factors: s_j^2 = (rho_1^2 ... rho_{j-1}^2)^{-1}."""
        s = [Fraction(1)]
        for r in rho_sq:
            r = Fraction(r)
            if r <= 0:
                raise ValueError("ratios must be positive")
            s.append(s[-1] / r)
        return ScalingVector(tuple(s))

    def to_rho_sq(self) -> tuple[Fraction, ...]:
        return tuple(a / b for a, b in zip(self.s_sq, self.s_sq[1:]))

    def compose(self, other: "ScalingVector") -> "ScalingVector":
        if len(self.s_sq) != len(other.s_sq):
            raise ValueError("length mismatch")
        return ScalingVector(tuple(a * b for a, b in zip(self.s_sq, other.s_sq)))

    def __len__(self) -> int:
        return len(self.s_sq)


def scale_along_flag(a: GramForm, flag: RationalFlag,
                     s: ScalingVector) -> GramForm:
    """The form sum_j s_j^2 pi_j^T A pi_j: block j of the A-orthogonal
    splitting is rescaled by s_j^2.  Flag members and their orthogonal
    complements are unchanged.

    With pi_j^T A pi_j = A P_j - A P_{j-1} (P_0 = 0, P_l = I for l
    blocks) the sum telescopes to s_l^2 A + sum_{j<l} (s_j^2 - s_{j+1}^2)
    A P_j, taken over one common denominator."""
    if flag.n != a.n:
        raise ValueError("flag dimension mismatch")
    if len(s) != len(flag.members) + 1:
        raise ValueError("scaling vector has wrong number of blocks")
    terms = []
    for member, s_j, s_next in zip(flag.members, s.s_sq, s.s_sq[1:]):
        split = _Split(a, member)
        terms.append(((s_j - s_next) / split.e, split.s))
    terms.append((s.s_sq[-1] / a.denom, a.numer))
    den = lcm(*(c.denominator for c, _ in terms))
    weights = [(c.numerator * (den // c.denominator), mat) for c, mat in terms]
    n = a.n
    return GramForm(tuple(tuple(sum(w * mat[i][k] for w, mat in weights)
                                for k in range(n)) for i in range(n)), den)


def _scale_at_member(a: GramForm, split: _Split, mu_sq: Fraction) -> GramForm:
    """Multiply squared lengths orthogonal to the member span by mu_sq:
    the form mu^2 A + (1 - mu^2) S / E."""
    u, v = mu_sq.numerator, mu_sq.denominator
    ug = u * split.g
    return GramForm(tuple(tuple(ug * x + (v - u) * y for x, y in zip(rm, rs))
                          for rm, rs in zip(a.numer, split.s)),
                    v * split.e)


def _stopping(a: GramForm, member: IntMatrix,
              mins: MinimaResult) -> tuple[Fraction, tuple, GramForm]:
    """mu^2, the vectors that reach the minimum there and the rescaled
    form, given the minima of a.  A vector w is scored by two integer
    quadratic forms, P = w^T S w and Q = g w^T M w - P, its squared
    parallel and perpendicular parts over the split's E; candidates are
    ranked by the integer numerators of (1 - p)/q = (E - P)/Q.  The first
    pass looks below 2.  If no vector there has p < 1, it looks below 1
    under the form rescaled at mu^2 = 1/4, 1/8, ..., which holds every
    vector scored at least mu^2, until a candidate exists: until then it
    meets only the span's vectors below 1, however long the form is
    across the span.  It stops at the score of a vector with p = 0 read
    off the split, which exists, so it ends.  Certified: a
    complete enumeration below 1 under the rescaled form, where w has
    value (P + mu^2 Q)/E, confirms that its minima are the tight vectors
    and those of a, whose values stay; so the answer does not depend on
    the first pass's radius."""
    n = a.n
    d = len(member[0]) if member else 0
    if d >= n:
        raise AlreadyFull("sublattice spans the whole space")
    if mins.min_sq != 1:
        raise ValueError("form must be normalized to minimum 1")
    split = _Split(a, member)
    e, g, m, s = split.e, split.g, split.m, split.s

    def parts(w) -> tuple[int, int]:
        par = _qf(s, w)
        return par, g * _qf(m, w) - par

    def ratio(par: int, perp: int) -> Optional[tuple[int, int]]:
        if perp == 0 or par >= e:
            return None
        return e - par, perp

    def beats(r, best) -> bool:
        return best is None or r[0] * best[1] > best[0] * r[1]

    def best_of(vectors, best=None):
        for w in vectors:
            r = ratio(*parts(w))
            if r is not None and beats(r, best):
                best = r
        return best

    best = best_of(vectors_below(a, 2))
    if best is None:
        # g e_j - N e_j (P = N / g) lies off the span with parallel part
        # 0, so the least positive Q(e_j) gives the score e / (g^2 Q(e_j))
        across = split.perp()
        floor = (e, g * g * min(across[j][j] for j in range(n)
                                if across[j][j]))
        trial = Fraction(1, 4)
        while best is None and trial * floor[1] >= floor[0]:
            best = best_of(vectors_below(_scale_at_member(a, split, trial), 1))
            trial /= 2
        best = best or floor
    while True:
        mu_sq = Fraction(*best)
        u, v = mu_sq.numerator, mu_sq.denominator
        scaled = _scale_at_member(a, split, mu_sq)
        tight = []
        violated = False
        for w in vectors_below(scaled, 1):
            par, perp = parts(w)
            if perp == 0:
                continue
            # v E times the value (P + mu^2 Q)/E, against v E
            val = v * par + u * perp
            if val < v * e:
                r = ratio(par, perp)
                if r is not None and beats(r, best):
                    best = r
                    violated = True
            elif val == v * e:
                tight.append(w)
        if not violated:
            if not tight:
                raise CertificateError("stopping scale certification failed")
            return mu_sq, canonical_config(tight), scaled


def stopping_mu(a: GramForm, member: IntMatrix) -> Fraction:
    """Largest mu^2 in (0,1) keeping the arithmetic minimum at 1 when the
    directions orthogonal to the member span are scaled by mu."""
    return _stopping(a, saturation(member), minimal_vectors(a))[0]


@dataclass(frozen=True)
class RetractionStage:
    member: IntMatrix          # saturated basis of the span of the minima
    mu_sq: Fraction            # 1 for trivial stages
    tight: tuple               # vectors newly reaching the minimum


@dataclass(frozen=True)
class RetractionTrace:
    stages: tuple[RetractionStage, ...]
    final_form: GramForm
    minima_flag: tuple[IntMatrix, ...]
    irredundant: Optional[RationalFlag]


def retract(a: GramForm) -> RetractionTrace:
    """Deformation of a form onto the well-rounded locus.

    The input is normalized to minimum 1; each stage shrinks the
    directions orthogonal to the span of the current minimal vectors by
    the critical factor, until the minimal vectors span Q^n; they are
    enumerated once, and each stage adds its tight vectors.  The
    composite is verified against a single block scaling along the
    irredundant flag of successive minima before returning.
    """
    n = a.n
    mins = minimal_vectors(a)
    cur = start = a if mins.min_sq == 1 else a.scale(1 / mins.min_sq)
    mins = MinimaResult(Fraction(1), mins.vectors)
    stages: list[RetractionStage] = []
    for i in range(1, n):
        member = saturation(int_transpose(mins.vectors))
        rank = len(member[0])
        if rank == i and rank < n:
            mu_sq, tight, cur = _stopping(cur, member, mins)
            mins = MinimaResult(mins.min_sq, canonical_config(mins.vectors + tight))
            stages.append(RetractionStage(member, mu_sq, tight))
        else:
            stages.append(RetractionStage(member, Fraction(1), ()))
    final = cur
    final_mins = minimal_vectors(final)
    if final_mins.min_sq != 1 or not config_spans(final_mins.vectors, n):
        raise CertificateError("retracted form is not well-rounded with minimum 1")

    minima_flag = tuple(st.member for st in stages)
    proper = []
    scale_factors = [Fraction(1)]
    for st in stages:
        if st.mu_sq != 1:
            proper.append(st.member)
            scale_factors.append(scale_factors[-1] * st.mu_sq)
    # the stage members are saturated, column-HNF and ordered by dimension
    irred = RationalFlag(n, tuple(proper)) if proper else None
    if irred is not None:
        rebuilt = scale_along_flag(start, irred, ScalingVector.of(scale_factors))
        if rebuilt != final:
            raise CertificateError("composite disagrees with block scaling")
    elif final != start:
        raise CertificateError("trivial retraction moved the form")
    return RetractionTrace(tuple(stages), final, minima_flag, irred)


# ---------------------------------------------------------------------------
# Approximate path (inspection only: the homotopy parameter is irrational)
# ---------------------------------------------------------------------------

def sqrt_approx(x: Fraction, eps: Fraction) -> Fraction:
    """A rational r >= 0 with |r - sqrt(x)| <= eps."""
    x = Fraction(x)
    eps = Fraction(eps)
    if x < 0 or eps <= 0:
        raise ValueError("need x >= 0 and eps > 0")
    if x == 0:
        return Fraction(0)
    q = x.denominator
    k = (1 / (eps * q)).__ceil__() + 1
    return Fraction(isqrt(x.numerator * q * k * k), q * k)


def retract_path(a: GramForm, t, precision=Fraction(1, 10 ** 9)) -> GramForm:
    """The interpolated form at time t in [0, 1]: exact at the endpoints,
    elsewhere an entrywise approximation within `precision` (the stage
    factor is 1 + (mu - 1) tau with mu irrational)."""
    t = Fraction(t)
    precision = Fraction(precision)
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    if t == 0:
        return a
    trace = retract(a)
    if t == 1:
        return trace.final_form
    n = a.n
    stage_idx = 1
    while t > Fraction(stage_idx, n - 1):
        stage_idx += 1
    tau = t * (n - 1) - (stage_idx - 1)
    cur = normalize(a)
    for st in trace.stages[:stage_idx - 1]:
        if st.mu_sq != 1:
            cur = _scale_at_member(cur, _Split(cur, st.member), st.mu_sq)
    st = trace.stages[stage_idx - 1]
    if st.mu_sq == 1:
        return cur
    # cur = (S + (g M - S)) / E, parallel plus perpendicular part; the
    # point scales the second by c^2 = a/b: (b S + a (g M - S)) / (b E)
    split = _Split(cur, st.member)
    perp = split.perp()
    biggest = Fraction(max(abs(x) for row in perp for x in row), split.e)
    delta = precision / (3 * (1 + biggest))
    mu = sqrt_approx(st.mu_sq, delta)
    c_sq = (1 + (mu - 1) * tau) ** 2
    a_c, b_c = c_sq.numerator, c_sq.denominator
    return GramForm(tuple(tuple(b_c * x + a_c * y for x, y in zip(rs, rp))
                          for rs, rp in zip(split.s, perp)), b_c * split.e)


# ---------------------------------------------------------------------------
# Orthant bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthantBound:
    """Squared ratio bounds t_j^2: every block scaling with rho <= t maps
    to a single retraction image respecting the flag."""

    t_sq: tuple[Fraction, ...]
    alpha_sq: tuple[Fraction, ...]
    beta_sq: tuple[Fraction, ...]


def orthant_bound(a: GramForm, flag: RationalFlag) -> OrthantBound:
    """For each proper member: alpha^2 is the shortest squared length of
    the lattice projected orthogonally onto the member's complement,
    beta^2 the product of the stage factors of the retraction inside the
    member, and t_j^2 = min(1, (t_1^2...t_{j-1}^2)^{-1} alpha^2 beta^2/4).

    Both alpha and beta for member j are measured in the scale where the
    sublattice it carries has arithmetic minimum 1 (the within-member
    retraction normalization); measuring alpha at the global scale makes
    the bound too generous whenever the member misses the global minima.
    """
    if flag.n != a.n:
        raise ValueError("flag dimension mismatch")
    base = normalize(a)
    alpha_list: list[Fraction] = []
    beta_list: list[Fraction] = []
    t_list: list[Fraction] = []
    running = Fraction(1)
    for member in flag.members:
        d = len(member[0])
        split = _Split(base, member)
        # retraction inside the member (scale-invariant stage factors)
        sub = GramForm(split.gram, base.denom)
        beta = Fraction(1)
        if d > 1:
            for st in retract(sub).stages:
                beta *= st.mu_sq
        beta_list.append(beta)
        # shortest vector of the orthogonal projection onto the complement,
        # relative to the sublattice minimum: the complement columns c have
        # Gram entries c^T A c' - c^T S c' / E
        sub_min = minimal_vectors(sub).min_sq
        comp_cols = int_transpose(complete_saturated(member))[d:]
        gram = GramForm(split.perp_gram(comp_cols), split.e)
        alpha = minimal_vectors(gram).min_sq / sub_min
        alpha_list.append(alpha)
        t_j = min(Fraction(1), alpha * beta / (4 * running))
        t_list.append(t_j)
        running *= t_j
    t_list = _certify_orthant(base, flag, t_list)
    return OrthantBound(tuple(t_list), tuple(alpha_list), tuple(beta_list))


def _members_dominated(trace: RetractionTrace, flag: RationalFlag) -> bool:
    """Each flag member is contained in the minima-flag member of its
    dimension (equality, or a harmless tie that jumped past it)."""
    return all(_subspace_contained(m, trace.minima_flag[len(m[0]) - 1])
               for m in flag.members)


def _certify_orthant(base: GramForm, flag: RationalFlag,
                     t_list: list[Fraction]) -> list[Fraction]:
    """Shrink the candidate bound until the whole orthant certifiably
    retracts to one point of the flag subcomplex.

    The closed-form value is only a starting point: the scaling applied
    at earlier flag steps distorts the sublattice stage factors, which
    the 1/2 safety margin does not always absorb.  Certification: at the
    corner the flag of successive minima dominates the flag memberwise,
    the image lands in the subcomplex, and halving any single coordinate
    (or all of them) reproduces the same image exactly.

    Each distinct moved form is retracted once: the all-halved probe of a
    failed round is the next corner, and with one member it is also the
    single-coordinate probe.
    """
    images: dict[GramForm, RetractionTrace] = {}

    def image_at(tv: list[Fraction]):
        moved = scale_along_flag(base, flag, ScalingVector.from_rho_sq(tv))
        if moved not in images:
            images[moved] = retract(moved)
        return images[moved]

    for _ in range(80):
        trace = image_at(t_list)
        target = trace.final_form
        ok = _members_dominated(trace, flag) and \
            respects_flag(minimal_vectors(target).vectors, flag)
        if ok:
            probes = [[x / 2 for x in t_list]]
            for j in range(len(t_list)):
                probe = list(t_list)
                probe[j] /= 2
                probes.append(probe)
            bad = None
            for probe in probes:
                if image_at(probe).final_form != target:
                    bad = probe
                    break
            if bad is None:
                return t_list
        t_list = [x / 2 for x in t_list]
    raise CertificateError("orthant bound certification did not converge")
