"""The subquotient linear algebra that `wellround.boundary` used for its
field answers before they were read off one persistence pairing, kept
as the oracle for that pairing.

Each page entry E_r^{p,q} is a quotient Z / B of kernels computed by a
fresh `Echelon` per (r, p, q), page differentials are Fraction (or
residue) vectors pushed through the total differential and solved in
the lift basis, and the restriction, boundary-homology and face-map
ranks are ranks of pushed-forward (co)cycle representatives modulo the
(co)boundaries.  Slow, and independent of `exactla.f_pairs`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from cone_assembly import inclusion_rows
from derived_build import locate_flag
from wellround.boundary import (
    BoundaryHomologyDegree, BoundaryHomologyReport, DoubleComplex,
    FaceMapReport, RestrictionDegree, RestrictionReport, SpectralPage,
    _check_boundary_duality, _field, total_differential,
)
from wellround.exactla import (
    QQ, CertificateError, Echelon, dense_view, f_solve, sparse_transpose,
)
from wellround.flags import RationalFlag, check_dimension
from wellround.quotient import (
    QuotientComplex, betti_at, coboundary, cohomology, homology, homology_at,
)


def rank_modulo(field, base, vectors) -> int:
    """Rank over the field of the vectors modulo the span of base: the
    number of vectors that an echelon basis of base accepts."""
    span = Echelon(field, base)
    return sum(span.add(v) for v in vectors)


def filtration_start(dc: DoubleComplex, k: int, p: int) -> int:
    """The first coordinate of total degree k in column p or later: the
    coordinates from there on span F^p of degree k."""
    return min((off for (pp, _, q), off in dc.offsets.items()
                if pp >= p and pp + q == k), default=dc.dims[k])


def of(field, n):
    """n as an element of the field: a Fraction, or a residue in [0, p)."""
    return Fraction(n) if field is QQ else n % field.p


def max_q(dc: DoubleComplex) -> int:
    return max((s.qc.dim for col in dc.columns for s in col), default=0)


def matvec(field, rows: Sequence[Sequence[tuple[int, int]]], vec) -> list:
    """An integer matrix, given by its nonzero entries per row, applied to
    a vector over the field; entries come out canonical."""
    return [of(field, sum(x * vec[j] for j, x in row)) for row in rows]


class Filtered:
    """Exact subquotient linear algebra for the column filtration."""

    def __init__(self, dc: DoubleComplex, field):
        self.dc = dc
        self.field = field
        self.pmax = dc.num_columns - 1

    def z_space(self, r: int, p: int, q: int) -> list[list]:
        """Basis of {x in F^p T^{p+q} : D x in F^{p+r}}."""
        k = p + q
        if not 0 <= k < len(self.dc.dims):
            return []
        lo = filtration_start(self.dc, k, p)
        n = self.dc.dims[k]
        if lo == n:
            return []
        d = total_differential(self.dc, k)[:filtration_start(self.dc, k + 1, p + r)]
        basis = Echelon(self.field, (row[lo:] for row in dense_view(d, n)))
        return [[of(self.field, 0)] * lo + v for v in basis.kernel(n - lo)]

    def apply_d(self, k: int, vec: list) -> list:
        return matvec(self.field, total_differential(self.dc, k), vec)

    def page_entry(self, r: int, p: int, q: int):
        """(numerator basis, denominator basis, lifts spanning E_r)."""
        z = self.z_space(r, p, q)
        den = self.z_space(r - 1, p + 1, q - 1) + \
            [self.apply_d(p + q - 1, v)
             for v in self.z_space(r - 1, p - r + 1, q + r - 2)]
        den = [v for v in den if any(v)]
        basis = Echelon(self.field, den)
        return z, den, [v for v in z if basis.add(v)]

    def express(self, vec, lifts, den):
        """Coordinates of vec in the lift basis modulo the denominator."""
        cols = list(lifts) + list(den)
        a = [[c[i] for c in cols] for i in range(len(vec))]
        sol = f_solve(self.field, a, vec, len(cols))
        if sol is None:
            raise CertificateError("vector not in the span")
        return sol[:len(lifts)]


def total_columns(dc: DoubleComplex, k: int):
    """The columns of D^k, as sparse rows of width dims[k + 1]."""
    if not 0 <= k < len(dc.dims) - 1:
        return ()
    return sparse_transpose(total_differential(dc, k), dc.dims[k])


def spectral_sequence(dc: DoubleComplex, coeff="Q", r_stop: Optional[int] = None):
    """Pages E_1, E_2, ... with differentials in the lift bases, and the
    abutment."""
    field = _field(coeff, "spectral pages")
    work = Filtered(dc, field)
    pmax = work.pmax
    if r_stop is None:
        r_stop = pmax + 2
    pages = []
    for r in range(1, r_stop + 1):
        entries, lifts_at, dens_at = {}, {}, {}
        for p in range(pmax + 1):
            for q in range(max_q(dc) + 1):
                _, den, lifts = work.page_entry(r, p, q)
                if lifts:
                    entries[(p, q)] = len(lifts)
                    lifts_at[(p, q)] = lifts
                    dens_at[(p, q)] = den
        diffs = {}
        for (p, q), lifts in lifts_at.items():
            tp, tq = p + r, q - r + 1
            timg = lifts_at.get((tp, tq), [])
            tden = dens_at.get((tp, tq), [])
            if not timg and not tden:
                _, tden, timg = work.page_entry(r, tp, tq)
            rows = [work.express(work.apply_d(p + q, v), timg, tden)
                    for v in lifts]
            if timg:
                diffs[(p, q)] = tuple(map(tuple, zip(*rows)))
            elif any(any(row) for row in rows):
                raise CertificateError("page differential into zero is nonzero")
        pages.append(SpectralPage(r, entries, diffs))
    return pages, total_betti(dc, field)


def total_betti(dc: DoubleComplex, field) -> list[int]:
    """dim H^k(Tot) by two eliminations per degree, trailing zeros
    dropped."""
    betti = [betti_at(field, total_differential(dc, k),
                      total_columns(dc, k - 1), dc.dims[k])[0]
             for k in range(len(dc.dims) - 1)]
    while betti and not betti[-1]:
        betti.pop()
    return betti


def restriction(dc: DoubleComplex, coeff="Q") -> RestrictionReport:
    """Restricted cocycle representatives, ranked modulo the total
    coboundaries."""
    field = _field(coeff, "restriction ranks")
    cocycles = cohomology(dc.w_qc, field).degrees
    degrees = []
    for q in range(max(dc.w_qc.dim, len(dc.dims) - 2) + 1):
        reps = cocycles[q].representatives if q <= dc.w_qc.dim else ()
        restrict_rows = sparse_transpose(inclusion_rows(dc, q), dc.dims[q])
        imgs = [matvec(field, restrict_rows, rep) for rep in reps]
        dtot = total_differential(dc, q)
        coboundaries = total_columns(dc, q - 1)
        dim_total = betti_at(field, dtot, coboundaries, dc.dims[q])[0]
        for v in imgs:
            if any(matvec(field, dtot, v)):
                raise CertificateError("restricted cocycle is not a total cocycle")
        rank = rank_modulo(field, dense_view(coboundaries, dc.dims[q]), imgs)
        degrees.append(RestrictionDegree(q, len(reps), dim_total, rank,
                                         len(reps) - rank))
    if field == QQ and dc.group.family != "gl":
        _check_boundary_duality(dc.group.n, degrees)
    return RestrictionReport(field.name, tuple(degrees))


def rank_in_homology(field, qc: QuotientComplex, q: int, cycles) -> int:
    """Rank of the classes of q-cycles of qc in H_q(qc)."""
    base = dense_view(coboundary(qc, q), len(qc.simplices[q])) if q < qc.dim else ()
    return rank_modulo(field, base, cycles)


def boundary_homology(dc: DoubleComplex, coeff="Q") -> BoundaryHomologyReport:
    """Cycle representatives of the dual total complex, included into
    W/Gamma and ranked modulo its boundaries."""
    field = _field(coeff, "boundary homology ranks")
    w_hom = homology(dc.w_qc, field).degrees
    degrees = []
    for q in range(max(len(dc.dims) - 2, dc.w_qc.dim) + 1):
        h = homology_at(field, total_columns(dc, q - 1),
                        total_differential(dc, q), dc.dims[q])
        include_rows = inclusion_rows(dc, q)
        imgs = [matvec(field, include_rows, rep) for rep in h.representatives]
        dim_w = w_hom[q].betti if q <= dc.w_qc.dim else 0
        degrees.append(BoundaryHomologyDegree(
            q, h.betti, dim_w, rank_in_homology(field, dc.w_qc, q, imgs)))
    while degrees and degrees[-1].dim_boundary == 0 \
            and degrees[-1].dim_retract == 0:
        degrees.pop()
    return BoundaryHomologyReport(field.name, tuple(degrees))


def face_map(dc: DoubleComplex, flag: RationalFlag, coeff="Q") -> FaceMapReport:
    """Cycle representatives of W_F/Gamma_F, included into W/Gamma and
    ranked modulo its boundaries."""
    field = _field(coeff, "face maps")
    check_dimension(flag, dc.group)
    hit = locate_flag(dc.columns[0], flag, dc.group)
    if hit is None:
        raise ValueError("flag is not equivalent to a column-0 representative")
    summand = dc.columns[0][hit[0]]
    cm = dc.inclusions[hit[0]]
    sub_h = homology(summand.qc, field)
    hom_ranks = []
    for q in range(dc.w_qc.dim + 1):
        reps = sub_h.degrees[q].representatives if q <= summand.qc.dim else ()
        imgs = [matvec(field, cm.matrix(q), rep) for rep in reps]
        hom_ranks.append(rank_in_homology(field, dc.w_qc, q, imgs))
    return FaceMapReport(summand.flag, field.name, tuple(hom_ranks),
                         tuple(hom_ranks),
                         tuple(cm.matrix(q) for q in range(dc.w_qc.dim + 1)))
