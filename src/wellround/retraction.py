"""The well-rounded retraction, flag splittings and orthant bounds.

A positive-definite form is retracted onto the well-rounded locus by
repeatedly shrinking the directions orthogonal to the span of its
minimal vectors until new vectors reach the arithmetic minimum.  The
shrink factor at each stage is mu^2 = (1 - p)/q for the critical lattice
vector with parallel/perpendicular squared parts (p, q), so the whole
computation stays in Q even though mu itself is irrational.

Block scalings along a flag realize the geodesic action on Gram
matrices; the scaling vector stores the squared block factors a_j^2,
with rho-coordinates (block ratios) available by conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence

from .exactla import (
    CertificateError, IntMatrix, RatMatrix, int_transpose, saturation,
)
from .flags import RationalFlag, complete_saturated, flag_from_members
from .lattice import (
    GramForm, canonical_config, config_spans, minimal_vectors, normalize,
    vectors_below,
)


class AlreadyFull(ValueError):
    """The sublattice already spans Q^n: no stopping scale exists."""


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


def _span_projector(a: GramForm, member: IntMatrix) -> RatMatrix:
    """A-orthogonal projection of Q^n onto the column span of member."""
    b = RatMatrix.from_rows(member)
    gram = b.transpose() @ a.matrix @ b
    return b @ gram.inverse() @ b.transpose() @ a.matrix


def flag_split(a: GramForm, flag: RationalFlag) -> FlagSplitting:
    if flag.n != a.n:
        raise ValueError("flag dimension mismatch")
    nested = [_span_projector(a, m) for m in flag.members]
    nested.append(RatMatrix.identity(a.n))
    projectors = []
    prev = RatMatrix.zeros(a.n, a.n)
    for p in nested:
        projectors.append(p - prev)
        prev = p
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
    complements are unchanged."""
    split = flag_split(a, flag)
    if len(s) != split.num_blocks:
        raise ValueError("scaling vector has wrong number of blocks")
    out = RatMatrix.zeros(a.n, a.n)
    for factor, proj in zip(s.s_sq, split.projectors):
        out = out + (proj.transpose() @ a.matrix @ proj).scale(factor)
    return GramForm(out)


def _scale_at_member(a: GramForm, member: IntMatrix, mu_sq: Fraction) -> GramForm:
    """Multiply squared lengths orthogonal to the member span by mu_sq."""
    p = _span_projector(a, member)
    q = RatMatrix.identity(a.n) - p
    out = (p.transpose() @ a.matrix @ p) + \
        (q.transpose() @ a.matrix @ q).scale(mu_sq)
    return GramForm(out)


def _parts(a: GramForm, proj: RatMatrix, w: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Squared parallel and perpendicular components of w."""
    pw = proj.matvec(w)
    qw = tuple(Fraction(x) - y for x, y in zip(w, pw))
    arow = a.matrix.matvec(pw)
    p = sum(x * y for x, y in zip(arow, pw))
    arow = a.matrix.matvec(qw)
    q = sum(x * y for x, y in zip(arow, qw))
    return p, q


def _stopping(a: GramForm, member: IntMatrix) -> tuple[Fraction, tuple]:
    """The critical squared scale mu^2 and the vectors that reach the
    minimum there.  Certified: under the rescaled form, a complete
    enumeration below 1 confirms no vector beats the minimum."""
    n = a.n
    d = len(member[0]) if member else 0
    if d >= n:
        raise AlreadyFull("sublattice spans the whole space")
    mins = minimal_vectors(a)
    if mins.min_sq != 1:
        raise ValueError("form must be normalized to minimum 1")
    proj = _span_projector(a, member)

    def ratio(w) -> Optional[Fraction]:
        p, q = _parts(a, proj, w)
        if q == 0 or p >= 1:
            return None
        return (1 - p) / q

    best = None
    radius = Fraction(4)
    while best is None:
        for w in vectors_below(a, radius):
            r = ratio(w)
            if r is not None and (best is None or r > best):
                best = r
        radius *= 2
        if radius > 2 ** 40:
            raise CertificateError("no stopping scale found")
    while True:
        scaled = _scale_at_member(a, member, best)
        tight = []
        violated = False
        for w in vectors_below(scaled, 1):
            val = scaled.value(w)
            _, q = _parts(a, proj, w)
            if q == 0:
                continue
            if val < 1:
                r = ratio(w)
                if r is not None and r > best:
                    best = r
                    violated = True
            elif val == 1:
                tight.append(w)
        if not violated:
            if not tight:
                raise CertificateError("stopping scale certification failed")
            return best, canonical_config(tight)


def stopping_mu(a: GramForm, member: IntMatrix) -> Fraction:
    """Largest mu^2 in (0,1) keeping the arithmetic minimum at 1 when the
    directions orthogonal to the member span are scaled by mu."""
    return _stopping(a, saturation(member))[0]


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
    the critical factor, until the minimal vectors span Q^n.  The
    composite is verified against a single block scaling along the
    irredundant flag of successive minima before returning.
    """
    n = a.n
    start = normalize(a)
    cur = start
    stages: list[RetractionStage] = []
    for i in range(1, n):
        mins = minimal_vectors(cur)
        member = saturation(int_transpose(mins.vectors))
        rank = len(member[0])
        if rank == i and rank < n:
            mu_sq, tight = _stopping(cur, member)
            cur = _scale_at_member(cur, member, mu_sq)
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
    irred = flag_from_members(n, proper) if proper else None
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
            cur = _scale_at_member(cur, st.member, st.mu_sq)
    st = trace.stages[stage_idx - 1]
    if st.mu_sq == 1:
        return cur
    p = _span_projector(cur, st.member)
    q = RatMatrix.identity(n) - p
    perp = q.transpose() @ cur.matrix @ q
    par = p.transpose() @ cur.matrix @ p
    biggest = max(abs(x) for row in perp.entries for x in row)
    delta = precision / (3 * (1 + biggest))
    mu = sqrt_approx(st.mu_sq, delta)
    c = 1 + (mu - 1) * tau
    return GramForm(par + perp.scale(c * c))


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
    base = normalize(a)
    n = base.n
    alpha_list: list[Fraction] = []
    beta_list: list[Fraction] = []
    t_list: list[Fraction] = []
    running = Fraction(1)
    for member in flag.members:
        d = len(member[0])
        # retraction inside the member (scale-invariant stage factors)
        b = RatMatrix.from_rows(member)
        sub = GramForm(b.transpose() @ base.matrix @ b)
        beta = Fraction(1)
        if d > 1:
            for st in retract(sub).stages:
                beta *= st.mu_sq
        beta_list.append(beta)
        # shortest vector of the orthogonal projection onto the complement,
        # relative to the sublattice minimum
        sub_min = minimal_vectors(sub).min_sq
        proj = _span_projector(base, member)
        w = complete_saturated(member)
        comp_cols = int_transpose(w)[d:]
        qmat = RatMatrix.identity(n) - proj
        imgs = [qmat.matvec(col) for col in comp_cols]
        gram = [[sum(base.matrix.matvec(v)[k] * u[k] for k in range(n))
                 for v in imgs] for u in imgs]
        alpha = minimal_vectors(GramForm.from_rows(gram)).min_sq / sub_min
        alpha_list.append(alpha)
        t_j = min(Fraction(1), alpha * beta / (4 * running))
        t_list.append(t_j)
        running *= t_j
    t_list = _certify_orthant(base, flag, t_list)
    return OrthantBound(tuple(t_list), tuple(alpha_list), tuple(beta_list))


def _members_dominated(trace: RetractionTrace, flag: RationalFlag) -> bool:
    """Each flag member is contained in the minima-flag member of its
    dimension (equality, or a harmless tie that jumped past it)."""
    for member in flag.members:
        d = len(member[0])
        dominating = trace.minima_flag[d - 1]
        big = RatMatrix.from_rows(dominating)
        for col in int_transpose(member):
            if big.solve(col) is None:
                return False
    return True


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
    """
    from .lattice import config_rank

    def image_at(tv: list[Fraction]):
        moved = scale_along_flag(base, flag, ScalingVector.from_rho_sq(tv))
        return retract(moved)

    def respects(form: GramForm) -> bool:
        vecs = minimal_vectors(form).vectors
        for member in flag.members:
            mm = RatMatrix.from_rows(member)
            inside = tuple(v for v in vecs if mm.solve(v) is not None)
            if not inside or config_rank(inside) != len(member[0]):
                return False
        return True

    for _ in range(80):
        trace = image_at(t_list)
        target = trace.final_form
        ok = _members_dominated(trace, flag) and respects(target)
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
